// Replicated document store example (the paper's MongoDB case study):
// JSON documents, a journal executed with gMEMCPY under group locks, and
// consistent reads served from a backup replica under a read lock.
package main

import (
	"fmt"
	"log"

	"hyperloop"
	"hyperloop/internal/docstore"
	"hyperloop/internal/ycsb"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	cluster, err := hyperloop.NewCluster(hyperloop.ClusterConfig{Seed: 11, Replicas: 3})
	if err != nil {
		return err
	}
	cfg := docstore.Config{LogSize: 64 * 1024, DataSize: 512 * 1024, SlotSize: 1536}
	group, err := cluster.NewGroup(docstore.MirrorSizeFor(cfg))
	if err != nil {
		return err
	}
	st, err := docstore.Open(group, cfg)
	if err != nil {
		return err
	}

	return cluster.Run(func(f *hyperloop.Fiber) error {
		// Insert documents.
		users := []docstore.Doc{
			{"_id": "u1", "name": "ada", "city": "london", "age": float64(36)},
			{"_id": "u2", "name": "grace", "city": "arlington", "age": float64(45)},
			{"_id": "u3", "name": "edsger", "city": "austin", "age": float64(72)},
		}
		for _, u := range users {
			start := f.Now()
			if err := st.Insert(f, "users", u); err != nil {
				return err
			}
			fmt.Printf("insert %s: %v (journal + gMEMCPY execute under group lock)\n",
				u["_id"], f.Now().Sub(start))
		}

		// Update merges fields.
		if err := st.Update(f, "users", "u2", docstore.Doc{"city": "washington"}); err != nil {
			return err
		}
		doc, err := st.FindID("users", "u2")
		if err != nil {
			return err
		}
		fmt.Printf("u2 after update: name=%v city=%v\n", doc["name"], doc["city"])

		// Consistent read from the middle backup under a per-replica read
		// lock — the paper's high-read-throughput path.
		mem := cluster.ReplicaNICs()[1].Memory()
		reader := func(off, n int) ([]byte, error) {
			buf := make([]byte, n)
			err := mem.Read(off, buf)
			return buf, err
		}
		rdoc, err := st.ReadReplica(f, 1, reader, "users", "u3")
		if err != nil {
			return err
		}
		fmt.Printf("replica-1 read of u3: name=%v (served under rdLock)\n", rdoc["name"])

		// Drive a short YCSB-B mix against the store.
		runner := ycsb.NewRunner(ycsb.RunnerConfig{
			Workload:    ycsb.WorkloadB,
			RecordCount: 40,
			OpCount:     200,
			ValueSize:   256,
			Seed:        3,
		})
		ad := ycsb.Doc(st)
		if err := runner.Load(f, ad); err != nil {
			return err
		}
		res, err := runner.Run(f, ad)
		if err != nil {
			return err
		}
		fmt.Printf("YCSB-B (95%% read / 5%% update): %s\n", res.Overall.Summarize())
		return nil
	})
}
