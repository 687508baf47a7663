package txn

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	_ "hyperloop/internal/naive" // registers "naive"
	"hyperloop/internal/protocol"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
	"hyperloop/internal/topo"
	"hyperloop/internal/wal"
)

const (
	testLog  = 8 * 1024
	testData = 32 * 1024
	testDev  = 1 << 20
)

// backends builds the same store over both the HyperLoop and Naive-RDMA
// replicators so every test exercises both datapaths.
type backend struct {
	name string
	k    *sim.Kernel
	st   *Store
	nics []*rdma.NIC
}

func newBackends(t *testing.T, nReplicas int) []backend {
	t.Helper()
	return []backend{
		newBackend(t, "hyperloop", "chain", 0, nReplicas),
		newBackend(t, "naive", "naive", 4, nReplicas),
	}
}

// newBackend builds a store over the registry protocol proto on a rack of
// nReplicas servers with the given cores each (none for NIC-offloaded
// protocols).
func newBackend(t *testing.T, name, proto string, cores, nReplicas int) backend {
	t.Helper()
	mirror := MirrorSizeFor(testLog, testData)
	r, err := topo.Build(topo.Spec{Seed: 7, Servers: nReplicas, Cores: cores, DevExtra: testDev - mirror})
	if err != nil {
		t.Fatal(err)
	}
	g, err := r.Group(topo.GroupSpec{Servers: topo.FirstServers(nReplicas), Mirror: mirror}, protocol.Named(proto), protocol.Params{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := New(g, Config{LogSize: testLog, DataSize: testData})
	if err != nil {
		t.Fatal(err)
	}
	return backend{name: name, k: r.Kernel, st: st, nics: r.Members("").Replicas}
}

func (b backend) run(t *testing.T, fn func(f *sim.Fiber)) {
	t.Helper()
	b.k.Spawn("txn-test", fn)
	if err := b.k.RunUntil(b.k.Now().Add(30 * sim.Second)); err != nil {
		t.Fatalf("%s: kernel: %v", b.name, err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(nil, Config{LogSize: 0, DataSize: 10}); !errors.Is(err, ErrBadArgument) {
		t.Fatalf("err = %v", err)
	}
}

func TestAppendExecuteReadBack(t *testing.T) {
	for _, b := range newBackends(t, 3) {
		b := b
		t.Run(b.name, func(t *testing.T) {
			b.run(t, func(f *sim.Fiber) {
				seq, err := b.st.Append(f, []wal.Entry{
					{Off: 0, Data: []byte("alpha")},
					{Off: 100, Data: []byte("beta")},
				})
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				if seq != 1 {
					t.Errorf("seq = %d", seq)
				}
				got, err := b.st.ExecuteAndAdvance(f)
				if err != nil {
					t.Errorf("execute: %v", err)
					return
				}
				if got != seq {
					t.Errorf("executed seq = %d", got)
				}
				data, err := b.st.ViewData(0, 5)
				if err != nil || string(data) != "alpha" {
					t.Errorf("data[0] = %q (%v)", data, err)
				}
				data, _ = b.st.ViewData(100, 4)
				if string(data) != "beta" {
					t.Errorf("data[100] = %q", data)
				}
				if _, err := b.st.ExecuteAndAdvance(f); !errors.Is(err, ErrLogEmpty) {
					t.Errorf("empty execute err = %v", err)
				}
			})
			// The executed data must be present AND durable on every replica.
			for i, nic := range b.nics {
				nic.Memory().Crash()
				img := make([]byte, 5)
				_ = nic.Memory().Read(b.st.DataOff(), img)
				if string(img) != "alpha" {
					t.Fatalf("%s replica %d lost executed data after crash: %q", b.name, i, img)
				}
			}
		})
	}
}

func TestLogWrapsAround(t *testing.T) {
	for _, b := range newBackends(t, 2) {
		b := b
		t.Run(b.name, func(t *testing.T) {
			b.run(t, func(f *sim.Fiber) {
				// Each record ~ 520 bytes; the 8KB log wraps several times
				// across 50 append+execute rounds.
				payload := bytes.Repeat([]byte{0xAB}, 500)
				for i := 0; i < 50; i++ {
					copy(payload, []byte(fmt.Sprintf("rec-%03d", i)))
					if _, err := b.st.Append(f, []wal.Entry{{Off: 0, Data: payload}}); err != nil {
						t.Errorf("append %d: %v", i, err)
						return
					}
					if _, err := b.st.ExecuteAndAdvance(f); err != nil {
						t.Errorf("execute %d: %v", i, err)
						return
					}
				}
				got, _ := b.st.ViewData(0, 7)
				if string(got) != "rec-049" {
					t.Errorf("final record = %q", got)
				}
				used, _ := b.st.LogUsed()
				if used != 0 {
					t.Errorf("log used = %d after draining", used)
				}
			})
		})
	}
}

func TestLogFull(t *testing.T) {
	b := newBackends(t, 1)[0] // hyperloop only; semantics identical
	b.run(t, func(f *sim.Fiber) {
		payload := bytes.Repeat([]byte{1}, 1000)
		full := false
		for i := 0; i < 20; i++ {
			_, err := b.st.Append(f, []wal.Entry{{Off: 0, Data: payload}})
			if errors.Is(err, ErrLogFull) {
				full = true
				break
			}
			if err != nil {
				t.Errorf("append: %v", err)
				return
			}
		}
		if !full {
			t.Error("log never filled")
			return
		}
		// Draining makes room again.
		if _, err := b.st.ExecuteAll(f); err != nil {
			t.Errorf("drain: %v", err)
			return
		}
		if _, err := b.st.Append(f, []wal.Entry{{Off: 0, Data: payload}}); err != nil {
			t.Errorf("append after drain: %v", err)
		}
	})
}

func TestOversizedRecordRejected(t *testing.T) {
	b := newBackends(t, 1)[0]
	b.run(t, func(f *sim.Fiber) {
		if _, err := b.st.Append(f, []wal.Entry{{Off: 0, Data: make([]byte, testLog)}}); !errors.Is(err, ErrBadArgument) {
			t.Errorf("oversized append err = %v", err)
		}
		if _, err := b.st.Append(f, []wal.Entry{{Off: testData, Data: []byte{1}}}); !errors.Is(err, ErrBadArgument) {
			t.Errorf("out-of-data-region append err = %v", err)
		}
	})
}

func TestWrLockExcludes(t *testing.T) {
	for _, b := range newBackends(t, 3) {
		b := b
		t.Run(b.name, func(t *testing.T) {
			b.run(t, func(f *sim.Fiber) {
				if err := b.st.WrLock(f); err != nil {
					t.Errorf("lock: %v", err)
					return
				}
				locked, _ := b.st.Locked()
				if !locked {
					t.Error("lock word not set")
				}
				if err := b.st.WrUnlock(f); err != nil {
					t.Errorf("unlock: %v", err)
				}
				locked, _ = b.st.Locked()
				if locked {
					t.Error("lock word still set after unlock")
				}
			})
		})
	}
}

func TestWrLockContention(t *testing.T) {
	// Two writers with distinct tokens share one group: the second must
	// back off while the first holds the lock, and acquire afterwards.
	b := newBackends(t, 3)[0]
	st2, err := New(b.st.r, Config{LogSize: testLog, DataSize: testData, LockToken: 2})
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	b.k.Spawn("writer-1", func(f *sim.Fiber) {
		if err := b.st.WrLock(f); err != nil {
			t.Errorf("w1 lock: %v", err)
			return
		}
		order = append(order, "w1-acquired")
		f.Sleep(500 * sim.Microsecond)
		order = append(order, "w1-released")
		if err := b.st.WrUnlock(f); err != nil {
			t.Errorf("w1 unlock: %v", err)
		}
	})
	b.k.Spawn("writer-2", func(f *sim.Fiber) {
		f.Sleep(50 * sim.Microsecond) // let w1 win
		if err := st2.WrLock(f); err != nil {
			t.Errorf("w2 lock: %v", err)
			return
		}
		order = append(order, "w2-acquired")
		if err := st2.WrUnlock(f); err != nil {
			t.Errorf("w2 unlock: %v", err)
		}
	})
	if err := b.k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"w1-acquired", "w1-released", "w2-acquired"}
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestWrUnlockAfterFailedBody: a writer whose work under the group lock
// fails still gives the lock back — the lock/work/unlock sequence every
// caller now spells out itself.
func TestWrUnlockAfterFailedBody(t *testing.T) {
	b := newBackends(t, 2)[0]
	b.run(t, func(f *sim.Fiber) {
		if err := b.st.WrLock(f); err != nil {
			t.Errorf("lock: %v", err)
			return
		}
		_, err := b.st.Append(f, []wal.Entry{{Off: testData, Data: []byte("past the data region")}})
		if !errors.Is(err, ErrBadArgument) {
			t.Errorf("err = %v", err)
		}
		if err := b.st.WrUnlock(f); err != nil {
			t.Errorf("unlock: %v", err)
		}
		locked, _ := b.st.Locked()
		if locked {
			t.Error("lock leaked after the work under it failed")
		}
	})
}

func TestRdLockCounts(t *testing.T) {
	b := newBackends(t, 3)[0]
	b.run(t, func(f *sim.Fiber) {
		if err := b.st.RdLock(f, 1); err != nil {
			t.Errorf("rdlock: %v", err)
			return
		}
		if err := b.st.RdLock(f, 1); err != nil {
			t.Errorf("rdlock 2: %v", err)
			return
		}
		n, _ := b.st.Readers()
		if n != 2 {
			t.Errorf("readers = %d", n)
		}
		_ = b.st.RdUnlock(f, 1)
		_ = b.st.RdUnlock(f, 1)
		n, _ = b.st.Readers()
		if n != 0 {
			t.Errorf("readers after unlock = %d", n)
		}
		if err := b.st.RdUnlock(f, 1); err == nil {
			t.Error("reader underflow not caught")
		}
		if err := b.st.RdLock(f, 99); !errors.Is(err, ErrBadArgument) {
			t.Errorf("bad replica err = %v", err)
		}
	})
}

func TestPendingSeqsAndRecover(t *testing.T) {
	for _, b := range newBackends(t, 3) {
		b := b
		t.Run(b.name, func(t *testing.T) {
			b.run(t, func(f *sim.Fiber) {
				for i := 0; i < 3; i++ {
					if _, err := b.st.Append(f, []wal.Entry{{Off: i * 8, Data: []byte("12345678")}}); err != nil {
						t.Errorf("append: %v", err)
						return
					}
				}
				seqs, err := b.st.PendingSeqs()
				if err != nil || len(seqs) != 3 {
					t.Errorf("pending = %v (%v)", seqs, err)
					return
				}
				n, err := b.st.Recover(f)
				if err != nil || n != 3 {
					t.Errorf("recover applied %d (%v)", n, err)
					return
				}
				for i := 0; i < 3; i++ {
					d, _ := b.st.ViewData(i*8, 8)
					if string(d) != "12345678" {
						t.Errorf("entry %d = %q", i, d)
					}
				}
			})
		})
	}
}

func TestRepairLogRollsBackTornTail(t *testing.T) {
	b := newBackends(t, 2)[0]
	b.run(t, func(f *sim.Fiber) {
		if _, err := b.st.Append(f, []wal.Entry{{Off: 0, Data: []byte("good record")}}); err != nil {
			t.Errorf("append: %v", err)
			return
		}
		// Simulate a torn append: advance the tail pointer over garbage
		// (as if the crash hit between the pointer write and the record).
		tail, _ := b.st.Tail()
		if err := b.st.writePtr(f, ctrlTailPtr, tail+64); err != nil {
			t.Errorf("corrupt tail: %v", err)
			return
		}
		n, repaired, err := b.st.RepairLog(f)
		if err != nil {
			t.Errorf("repair: %v", err)
			return
		}
		if !repaired || n != 1 {
			t.Errorf("repair = %d records, repaired=%v", n, repaired)
			return
		}
		newTail, _ := b.st.Tail()
		if newTail != tail {
			t.Errorf("tail = %d, want rollback to %d", newTail, tail)
		}
		// The surviving record must still execute.
		if _, err := b.st.ExecuteAndAdvance(f); err != nil {
			t.Errorf("execute after repair: %v", err)
		}
	})
}

func TestSequencesSurviveRecovery(t *testing.T) {
	b := newBackends(t, 2)[0]
	b.run(t, func(f *sim.Fiber) {
		s1, _ := b.st.Append(f, []wal.Entry{{Off: 0, Data: []byte("a")}})
		if _, _, err := b.st.RepairLog(f); err != nil {
			t.Errorf("repair: %v", err)
			return
		}
		s2, err := b.st.Append(f, []wal.Entry{{Off: 0, Data: []byte("b")}})
		if err != nil {
			t.Errorf("append: %v", err)
			return
		}
		if s2 <= s1 {
			t.Errorf("sequence did not advance: %d then %d", s1, s2)
		}
	})
}

// TestTxnOverFanout verifies the transaction layer runs unchanged over the
// §7 fan-out topology — the third interchangeable Replicator.
func TestTxnOverFanout(t *testing.T) {
	b := newBackend(t, "fanout", "fanout", 0, 3)
	st := b.st
	b.run(t, func(f *sim.Fiber) {
		if err := st.WrLock(f); err != nil {
			t.Errorf("lock: %v", err)
			return
		}
		if _, err := st.Append(f, []wal.Entry{{Off: 0, Data: []byte("fanout txn")}}); err != nil {
			t.Errorf("append: %v", err)
		}
		if _, err := st.ExecuteAll(f); err != nil {
			t.Errorf("execute: %v", err)
		}
		if err := st.WrUnlock(f); err != nil {
			t.Errorf("unlock: %v", err)
		}
	})
	for i, nic := range b.nics {
		nic.Memory().Crash()
		got := make([]byte, 10)
		_ = nic.Memory().Read(st.DataOff(), got)
		if string(got) != "fanout txn" {
			t.Fatalf("member %d lost committed txn: %q", i, got)
		}
	}
}
