// Failover example (§5 recovery): a replica dies mid-workload; heartbeats
// detect it; writes pause; a spare machine catches up from a healthy
// member; a fresh HyperLoop datapath is established; writes resume.
// chain.Manager.Repair runs that protocol; the application supplies only
// how its datapath and store are rebuilt over the repaired chain.
package main

import (
	"fmt"
	"log"

	"hyperloop"
	"hyperloop/internal/chain"
	"hyperloop/internal/nvm"
	"hyperloop/internal/sim"
	"hyperloop/internal/txn"
	"hyperloop/internal/wal"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	cluster, err := hyperloop.NewCluster(hyperloop.ClusterConfig{Seed: 5, Replicas: 3})
	if err != nil {
		return err
	}
	tcfg := txn.Config{LogSize: 32 * 1024, DataSize: 64 * 1024}
	mirror := txn.MirrorSizeFor(tcfg.LogSize, tcfg.DataSize)

	gcfg := hyperloop.DefaultGroupConfig(mirror)
	gcfg.OpTimeout = 2 * sim.Millisecond
	group, err := cluster.NewGroupWithConfig(gcfg)
	if err != nil {
		return err
	}
	store, err := txn.New(group, tcfg)
	if err != nil {
		return err
	}

	// A spare machine stands by.
	spare, err := cluster.Fabric().AddNIC("spare", nvm.NewDevice("spare", 16<<20))
	if err != nil {
		return err
	}

	replicas := cluster.ReplicaNICs()
	monitor, err := chain.New(cluster.Kernel(), replicas, chain.DefaultConfig())
	if err != nil {
		return err
	}
	// The application's part of recovery: close the old datapath, build a
	// fresh one over the repaired chain and recover the store on it.
	repair := monitor.Repair(spare, mirror, func(f *hyperloop.Fiber, members []*hyperloop.NIC) error {
		group.Close()
		g, err := cluster.NewGroupOver(members, mirror)
		if err != nil {
			return err
		}
		s, err := txn.New(g, tcfg)
		if err != nil {
			return err
		}
		if _, err := s.Recover(f); err != nil {
			return err
		}
		store = s
		return nil
	})

	return cluster.Run(func(f *hyperloop.Fiber) error {
		for i := 0; i < 5; i++ {
			if _, err := store.Append(f, []wal.Entry{
				{Off: i * 64, Data: []byte(fmt.Sprintf("record-%d", i))},
			}); err != nil {
				return err
			}
		}
		if _, err := store.ExecuteAll(f); err != nil {
			return err
		}
		fmt.Println("phase 1: 5 transactions committed on the healthy chain")

		// Replica 1 loses power; wait out detection and repair.
		replicas[1].SetDown(true)
		if err := f.Await(repair.Done); err != nil {
			return err
		}
		fmt.Printf("heartbeat monitor: replica %d suspected after consecutive misses — pausing writes\n", repair.Failed)
		fmt.Printf("catch-up from replica %d to spare took %v\n", repair.Source, repair.CaughtUp.Sub(repair.Suspected))
		fmt.Println("datapath re-established; writes resumed")

		if _, err := store.Append(f, []wal.Entry{{Off: 1024, Data: []byte("post-failover")}}); err != nil {
			return err
		}
		if _, err := store.ExecuteAll(f); err != nil {
			return err
		}
		buf := make([]byte, 13)
		if err := spare.Memory().Read(txn.CtrlSize+tcfg.LogSize+1024, buf); err != nil {
			return err
		}
		fmt.Printf("spare replica data after failover: %q\n", buf)
		return nil
	})
}
