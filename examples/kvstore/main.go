// Replicated key-value store example (the paper's RocksDB case study):
// writes go through the replicated write-ahead log, a checkpoint truncates
// it, the client crashes, and recovery rebuilds the exact state from the
// replicas' durable NVM.
package main

import (
	"fmt"
	"log"

	"hyperloop"
	"hyperloop/internal/kvstore"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	cluster, err := hyperloop.NewCluster(hyperloop.ClusterConfig{Seed: 7, Replicas: 3})
	if err != nil {
		return err
	}
	cfg := kvstore.Config{LogSize: 64 * 1024, DataSize: 256 * 1024, Seed: 7}
	group, err := cluster.NewGroup(kvstore.MirrorSizeFor(cfg))
	if err != nil {
		return err
	}
	db, err := kvstore.Open(group, cfg)
	if err != nil {
		return err
	}

	return cluster.Run(func(f *hyperloop.Fiber) error {
		// Write a working set, checkpointing after every 10th Put.
		for i := 0; i < 25; i++ {
			key := fmt.Sprintf("user%04d", i%12)
			val := fmt.Sprintf("profile-v%d", i)
			if err := db.Put(f, []byte(key), []byte(val)); err != nil {
				return err
			}
			if (i+1)%10 == 0 {
				if err := db.Checkpoint(f); err != nil {
					return err
				}
			}
		}
		if err := db.Delete(f, []byte("user0003")); err != nil {
			return err
		}
		fmt.Printf("before crash: %d keys, stats %+v\n", db.Len(), db.Stats())

		// Show a ranged scan.
		for _, p := range db.Scan([]byte("user0005"), 3) {
			fmt.Printf("  scan: %s = %s\n", p.Key, p.Value)
		}

		// Power-fail the client machine. Everything volatile is gone.
		cluster.ClientNIC().Memory().Crash()
		if err := db.Recover(f); err != nil {
			return err
		}
		fmt.Printf("after client crash + recovery: %d keys\n", db.Len())
		if v, ok := db.Get([]byte("user0011")); ok {
			fmt.Printf("  user0011 = %s\n", v)
		}
		if _, ok := db.Get([]byte("user0003")); !ok {
			fmt.Println("  user0003 stays deleted — tombstone replayed correctly")
		}

		// An eventually-consistent read served from a backup replica's own
		// NVM, with no client involvement (§5.1 replica reads).
		img := make([]byte, kvstore.MirrorSizeFor(cfg))
		if err := cluster.ReplicaNICs()[2].Memory().Read(0, img); err != nil {
			return err
		}
		view, err := kvstore.LoadView(img, cfg)
		if err != nil {
			return err
		}
		fmt.Printf("tail replica view has %d keys; user0007 = %s\n",
			len(view), view["user0007"])
		return nil
	})
}
