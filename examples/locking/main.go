// Group locking example: two transaction coordinators contend on the same
// replicated store's write lock (gCAS with selective-execution undo), and
// readers take per-replica read locks concurrently.
package main

import (
	"bytes"
	"fmt"
	"log"

	"hyperloop"
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
	cluster, err := hyperloop.NewCluster(hyperloop.ClusterConfig{Seed: 23, Replicas: 3})
	if err != nil {
		return err
	}
	const logSize, dataSize = 32 * 1024, 64 * 1024
	group, err := cluster.NewGroup(txn.MirrorSizeFor(logSize, dataSize))
	if err != nil {
		return err
	}
	// Two writers with distinct lock tokens share the group.
	w1, err := txn.New(group, txn.Config{LogSize: logSize, DataSize: dataSize, LockToken: 1})
	if err != nil {
		return err
	}
	w2, err := txn.New(group, txn.Config{LogSize: logSize, DataSize: dataSize, LockToken: 2})
	if err != nil {
		return err
	}

	k := cluster.Kernel()
	done := 0
	finish := func() {
		done++
		if done == 3 {
			k.StopRun()
		}
	}
	transact := func(name string, st *txn.Store, off int) func(f *sim.Fiber) {
		return func(f *sim.Fiber) {
			defer finish()
			for i := 0; i < 3; i++ {
				start := f.Now()
				err := st.WrLock(f)
				if err == nil {
					_, err = st.Append(f, []wal.Entry{
						{Off: off, Data: []byte(fmt.Sprintf("%s-txn-%d", name, i))},
					})
				}
				if err == nil {
					// The release rides behind the execute: one step.
					_, err = st.ExecuteAllAndUnlock(f)
				}
				if err != nil {
					log.Printf("%s txn %d: %v", name, i, err)
					return
				}
				fmt.Printf("%6s committed txn %d in %v (waited for the group lock if contended)\n",
					name, i, f.Now().Sub(start))
			}
		}
	}
	k.Spawn("writer-1", transact("w1", w1, 0))
	k.Spawn("writer-2", transact("w2", w2, 256))
	k.Spawn("reader", func(f *sim.Fiber) {
		defer finish()
		for i := 0; i < 4; i++ {
			f.Sleep(40 * sim.Microsecond)
			replica := i % 3
			if err := w1.RdLock(f, replica); err != nil {
				log.Printf("reader: %v", err)
				return
			}
			// The view lasts only until RdUnlock yields: keep a copy.
			data, err := w1.ViewData(0, 16)
			data = bytes.Clone(data)
			_ = w1.RdUnlock(f, replica)
			if err != nil {
				log.Printf("reader: %v", err)
				return
			}
			fmt.Printf("reader saw %q via replica %d under rdLock\n", trim(data), replica)
		}
	})
	if err := k.RunUntil(k.Now().Add(10 * sim.Second)); err != nil && err != sim.ErrStopped {
		return err
	}

	// Show the final lock word is released on every replica.
	locked, err := w1.Locked()
	if err != nil {
		return err
	}
	fmt.Printf("write lock held after all transactions: %v\n", locked)
	return nil
}

func trim(b []byte) []byte {
	for i, c := range b {
		if c == 0 {
			return b[:i]
		}
	}
	return b
}
