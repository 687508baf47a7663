package txn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"hyperloop/internal/sim"
	"hyperloop/internal/wal"
)

// memRep is an in-process single-"replica" Replicator with an op-level
// fault hook, for driving the store's I/O-error branches that a healthy
// fabric never takes. No fiber ever blocks: every op completes inline.
type memRep struct {
	buf  []byte
	fail func(op string) error

	readBytes int // bytes requested through ViewLocal
}

var errInjected = errors.New("injected replicator fault")

func newMemRep(size int) *memRep { return &memRep{buf: make([]byte, size)} }

func (m *memRep) check(op string) error {
	if m.fail != nil {
		return m.fail(op)
	}
	return nil
}

func (m *memRep) GroupSize() int { return 1 }

func (m *memRep) WriteLocal(off int, data []byte) error {
	if err := m.check("writelocal"); err != nil {
		return err
	}
	if off < 0 || off+len(data) > len(m.buf) {
		return fmt.Errorf("writelocal out of range [%d,%d)", off, off+len(data))
	}
	copy(m.buf[off:], data)
	return nil
}

func (m *memRep) ViewLocal(off, n int) ([]byte, error) {
	if err := m.check("viewlocal"); err != nil {
		return nil, err
	}
	if off < 0 || off+n > len(m.buf) {
		return nil, fmt.Errorf("viewlocal out of range [%d,%d)", off, off+n)
	}
	m.readBytes += n
	out := make([]byte, n)
	copy(out, m.buf[off:])
	return out, nil
}

func (m *memRep) Write(f *sim.Fiber, off, size int, durable bool) error {
	return m.check("write")
}

func (m *memRep) Memcpy(f *sim.Fiber, src, dst, size int, durable bool) error {
	if err := m.check("memcpy"); err != nil {
		return err
	}
	copy(m.buf[dst:dst+size], m.buf[src:src+size])
	return nil
}

// The posting forms count as the same ops as the blocking ones and
// complete inline too: the signal they return has already fired.
func (m *memRep) WriteAsync(off, size int, durable bool) (*sim.Signal, error) {
	return firedSignal(), m.Write(nil, off, size, durable)
}

func (m *memRep) MemcpyAsync(src, dst, size int, durable bool) (*sim.Signal, error) {
	return firedSignal(), m.Memcpy(nil, src, dst, size, durable)
}

func firedSignal() *sim.Signal {
	s := sim.NewSignal()
	s.Fire(nil)
	return s
}

func (m *memRep) CAS(f *sim.Fiber, off int, old, new uint64, exec []bool) ([]uint64, error) {
	if err := m.check("cas"); err != nil {
		return nil, err
	}
	cur := binary.LittleEndian.Uint64(m.buf[off : off+8])
	if exec[0] && cur == old {
		var b [8]byte
		for i := range b {
			b[i] = byte(new >> (8 * i))
		}
		copy(m.buf[off:], b[:])
	}
	return []uint64{cur}, nil
}

func (m *memRep) Flush(f *sim.Fiber, off, size int) error { return m.check("flush") }

// failOn returns a hook erroring the nth (1-based) occurrence of op.
func failOn(op string, nth int) func(string) error {
	seen := 0
	return func(o string) error {
		if o != op {
			return nil
		}
		seen++
		if seen == nth {
			return errInjected
		}
		return nil
	}
}

func memStore(t *testing.T) (*memRep, *Store, *sim.Kernel) {
	t.Helper()
	m := newMemRep(MirrorSizeFor(testLog, testData))
	st, err := New(m, Config{LogSize: testLog, DataSize: testData, LockToken: 42})
	if err != nil {
		t.Fatal(err)
	}
	return m, st, sim.NewKernel(3)
}

// memLog is a commit log on an in-memory store of its own, for
// transactions whose participants are memStores.
func memLog(t *testing.T) *CommitLog {
	t.Helper()
	_, st, _ := memStore(t)
	cl, err := NewCommitLog(st, 2)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func runMem(t *testing.T, k *sim.Kernel, fn func(f *sim.Fiber)) {
	t.Helper()
	k.Spawn("mem", fn)
	if err := k.RunUntil(k.Now().Add(sim.Second)); err != nil {
		t.Fatalf("kernel: %v", err)
	}
}

func TestStoreIOFaults(t *testing.T) {
	m, st, k := memStore(t)
	runMem(t, k, func(f *sim.Fiber) {
		entry := []wal.Entry{{Off: 0, Data: []byte("io")}}

		// Append: tail read, record flush, tail-pointer write.
		m.fail = failOn("viewlocal", 1)
		if _, err := st.Append(f, entry); !errors.Is(err, errInjected) {
			t.Errorf("append tail read: %v", err)
		}
		m.fail = failOn("write", 1)
		if _, err := st.Append(f, entry); !errors.Is(err, errInjected) {
			t.Errorf("append record write: %v", err)
		}

		// LogUsed / Locked / Readers / readPtr error propagation.
		m.fail = failOn("viewlocal", 1)
		if _, err := st.LogUsed(); !errors.Is(err, errInjected) {
			t.Errorf("log used: %v", err)
		}
		m.fail = failOn("viewlocal", 2)
		if _, err := st.LogUsed(); !errors.Is(err, errInjected) {
			t.Errorf("log used tail: %v", err)
		}
		m.fail = failOn("viewlocal", 1)
		if _, err := st.Locked(); !errors.Is(err, errInjected) {
			t.Errorf("locked: %v", err)
		}
		m.fail = failOn("viewlocal", 1)
		if _, err := st.Readers(); !errors.Is(err, errInjected) {
			t.Errorf("readers: %v", err)
		}

		// WriteData local mirror failure and group-write failure.
		m.fail = failOn("writelocal", 1)
		if err := st.WriteData(f, 0, []byte("x")); !errors.Is(err, errInjected) {
			t.Errorf("write data local: %v", err)
		}
		m.fail = failOn("write", 1)
		if err := st.WriteData(f, 0, []byte("x")); !errors.Is(err, errInjected) {
			t.Errorf("write data group: %v", err)
		}

		// Lock paths: CAS failure in WrLock/WrUnlock.
		m.fail = failOn("cas", 1)
		if err := st.WrLock(f); !errors.Is(err, errInjected) {
			t.Errorf("lock cas: %v", err)
		}
		m.fail = nil
		if err := st.WrLock(f); err != nil {
			t.Fatal(err)
		}
		m.fail = failOn("cas", 1)
		if err := st.WrUnlock(f); !errors.Is(err, errInjected) {
			t.Errorf("unlock cas: %v", err)
		}
		m.fail = nil
		if err := st.WrUnlock(f); err != nil {
			t.Fatal(err)
		}
	})
}

func TestRecoverIOFaults(t *testing.T) {
	m, st, k := memStore(t)
	runMem(t, k, func(f *sim.Fiber) {
		// A prepared-but-unexecuted record under our token.
		if err := st.WrLock(f); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Append(f, []wal.Entry{{Off: 0, Data: []byte("orphan")}}); err != nil {
			t.Fatal(err)
		}

		m.fail = failOn("viewlocal", 1)
		if _, err := RecoverAbort(f, st, 42); !errors.Is(err, errInjected) {
			t.Errorf("recover abort lock read: %v", err)
		}
		m.fail = failOn("viewlocal", 1)
		if _, _, err := RecoverCommit(f, st, 42); !errors.Is(err, errInjected) {
			t.Errorf("recover commit lock read: %v", err)
		}
		m.fail = failOn("viewlocal", 1)
		if _, err := st.PendingSeqs(); !errors.Is(err, errInjected) {
			t.Errorf("pending seqs head read: %v", err)
		}
		m.fail = failOn("viewlocal", 2)
		if _, err := st.PendingSeqs(); !errors.Is(err, errInjected) {
			t.Errorf("pending seqs tail read: %v", err)
		}
		m.fail = failOn("viewlocal", 3)
		if _, err := st.PendingSeqs(); !errors.Is(err, errInjected) {
			t.Errorf("pending seqs record read: %v", err)
		}
		// The release fails behind the roll-forward: the step failed, so the
		// record stays at the client's head and the lock stays held for the
		// next pass.
		m.fail = failOn("cas", 1)
		if n, _, err := RecoverCommit(f, st, 42); !errors.Is(err, errInjected) || n != 0 {
			t.Errorf("recover commit unlock = (%d, %v)", n, err)
		}
		if locked, err := st.Locked(); err != nil || !locked {
			t.Errorf("failed release left the client's lock word free (locked=%v, err=%v)", locked, err)
		}
		// The retry executes the record again and releases the lock.
		m.fail = nil
		if n, ok, err := RecoverCommit(f, st, 42); err != nil || !ok || n != 1 {
			t.Errorf("recover commit retry = (%d, %v, %v)", n, ok, err)
		}
		if locked, err := st.Locked(); err != nil || locked {
			t.Errorf("lock leaked after recovery (locked=%v, err=%v)", locked, err)
		}
	})
}

func TestDistTxnRollbackFaults(t *testing.T) {
	m, st, k := memStore(t)
	m2 := newMemRep(MirrorSizeFor(testLog, testData))
	st2, err := New(m2, Config{LogSize: testLog, DataSize: testData, LockToken: 42})
	if err != nil {
		t.Fatal(err)
	}
	cl := memLog(t)
	runMem(t, k, func(f *sim.Fiber) {
		ps := []Participant{
			{Store: st, Entries: []wal.Entry{{Off: 0, Data: []byte("a")}}},
			{Store: st2, Entries: []wal.Entry{{Off: 0, Data: []byte("b")}}},
		}
		// Participant 1's append fails → failPrepare rolls participant 0
		// back; participant 0's third group write (its rollback tail
		// rewrite — the first two replicated its own record + tail) fails
		// too, so rollback keeps its lock (in doubt until recovery).
		m2.fail = failOn("write", 1)
		m.fail = failOn("write", 3)
		tx := begin(t, ps, cl)
		err := tx.Prepare(f)
		if !errors.Is(err, ErrAborted) || !errors.Is(err, errInjected) {
			t.Fatalf("prepare = %v, want aborted with injected faults", err)
		}
		// Participant 0 kept its lock: recovery's job now.
		m.fail = nil
		if locked, _ := st.Locked(); !locked {
			t.Error("participant 0 released its lock despite failed rollback")
		}
		if rolled, err := RecoverAbort(f, st, 42); err != nil || !rolled {
			t.Fatalf("recover = (%v, %v)", rolled, err)
		}

		// Commit-side: ExecuteAll failure leaves the txn in doubt.
		m2.fail = nil
		tx2 := begin(t, ps, cl)
		if err := tx2.Prepare(f); err != nil {
			t.Fatal(err)
		}
		m.fail = failOn("memcpy", 1)
		if err := tx2.Commit(f); !errors.Is(err, ErrInDoubt) {
			t.Fatalf("commit = %v, want ErrInDoubt", err)
		}
		// Retried Commit resumes and finishes.
		m.fail = nil
		if err := tx2.Commit(f); err != nil {
			t.Fatalf("retried commit: %v", err)
		}
	})
}
