package txn

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"hyperloop/internal/hyperloop"
	"hyperloop/internal/protocol"
	"hyperloop/internal/protocol/protocoltest"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
	"hyperloop/internal/topo"
	"hyperloop/internal/wal"
)

// twoPCRig is a set of independently replicated stores on one kernel —
// the smallest cross-shard deployment. Each store has its own client NIC
// and replica chain, like the shards of internal/shard's router, and sits
// behind a pass-through StopGroup so a test can freeze or slow one
// participant.
type twoPCRig struct {
	k      *sim.Kernel
	stores []*Store
	groups []*hyperloop.Group
	stops  []*protocoltest.StopGroup
}

// newTwoPCRig builds nStores 2-replica chains. faults (optional) is
// installed on the fabric before any NIC exists; opTimeout arms each
// group's client-side timeout so faulted chains fail instead of hanging.
func newTwoPCRig(t *testing.T, nStores int, faults *rdma.FaultPlan, opTimeout sim.Duration) *twoPCRig {
	t.Helper()
	return newTwoPCRigN(t, nStores, 2, faults, opTimeout)
}

// newTwoPCRigN is newTwoPCRig with a chosen chain length.
func newTwoPCRigN(t *testing.T, nStores, replicas int, faults *rdma.FaultPlan, opTimeout sim.Duration) *twoPCRig {
	t.Helper()
	rack, err := topo.Build(topo.Spec{Seed: 11, Servers: replicas, Faults: faults, DevExtra: testDev - MirrorSizeFor(testLog, testData)})
	if err != nil {
		t.Fatal(err)
	}
	rig := &twoPCRig{k: rack.Kernel}
	for s := 0; s < nStores; s++ {
		// Store s's NICs are cli/s<s> and srv<j>/s<s>.<j>.
		gs := topo.GroupSpec{Name: fmt.Sprintf("s%d", s), Servers: topo.FirstServers(replicas), Mirror: MirrorSizeFor(testLog, testData)}
		grp, err := rack.Group(gs, protocol.Named("chain"), protocol.Params{OpTimeout: opTimeout})
		if err != nil {
			t.Fatal(err)
		}
		g := grp.(*hyperloop.Group)
		stop := protocoltest.NewStopGroup(g)
		st, err := New(stop, Config{LogSize: testLog, DataSize: testData, LockToken: 42})
		if err != nil {
			t.Fatal(err)
		}
		rig.stores = append(rig.stores, st)
		rig.groups = append(rig.groups, g)
		rig.stops = append(rig.stops, stop)
	}
	return rig
}

func (r *twoPCRig) run(t *testing.T, fn func(f *sim.Fiber)) {
	t.Helper()
	r.k.Spawn("twopc-test", fn)
	if err := r.k.RunUntil(r.k.Now().Add(30 * sim.Second)); err != nil {
		t.Fatalf("kernel: %v", err)
	}
}

// mustUnlocked fails the test if any store still holds its write lock —
// the "no leaked group locks" invariant every abort path must keep.
func mustUnlocked(t *testing.T, stores []*Store) {
	t.Helper()
	for i, st := range stores {
		locked, err := st.Locked()
		if err != nil {
			t.Errorf("store %d: Locked: %v", i, err)
			continue
		}
		if locked {
			t.Errorf("store %d: write lock leaked", i)
		}
	}
}

func parts(stores []*Store, payload string) []Participant {
	ps := make([]Participant, len(stores))
	for i, st := range stores {
		ps[i] = Participant{
			Store:   st,
			Entries: []wal.Entry{{Off: 64 * i, Data: []byte(fmt.Sprintf("%s-%d", payload, i))}},
		}
	}
	return ps
}

// begin starts a transaction over ps whose commit record, on cl, names
// them 0..n-1.
func begin(t testing.TB, ps []Participant, cl *CommitLog) *DistTxn {
	t.Helper()
	ids := make([]int, len(ps))
	for i := range ids {
		ids[i] = i
	}
	tx, err := new(DistTxn).Begin(ps, cl, ids)
	if err != nil {
		t.Fatal(err)
	}
	return tx
}

func TestTwoPCCommitAppliesEverywhere(t *testing.T) {
	rig, cl := loggedRig(t, 2)
	stores := rig.stores[:2]
	rig.run(t, func(f *sim.Fiber) {
		tx := begin(t, parts(stores, "commit"), cl)
		if err := tx.Prepare(f); err != nil {
			t.Errorf("prepare: %v", err)
			return
		}
		if got := tx.Prepared(); got != 2 {
			t.Errorf("prepared = %d, want 2", got)
		}
		if err := tx.Commit(f); err != nil {
			t.Errorf("commit: %v", err)
			return
		}
		for i, st := range stores {
			want := []byte(fmt.Sprintf("commit-%d", i))
			got, err := st.ViewData(64*i, len(want))
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("store %d: data = %q (%v), want %q", i, got, err, want)
			}
			// Applied on the replicas too, not just the client's mirror.
			img := make([]byte, len(want))
			if err := rig.groups[i].ReplicaNIC(1).Memory().Read(st.DataOff()+64*i, img); err != nil {
				t.Errorf("store %d: replica read: %v", i, err)
			} else if !bytes.Equal(img, want) {
				t.Errorf("store %d: replica data = %q, want %q", i, img, want)
			}
			if used, err := st.LogUsed(); err != nil || used != 0 {
				t.Errorf("store %d: log used = %d (%v), want 0", i, used, err)
			}
		}
		mustUnlocked(t, stores)
	})
}

func TestTwoPCAbortReleasesLocksAndRollsBack(t *testing.T) {
	rig, cl := loggedRig(t, 2)
	stores := rig.stores[:2]
	rig.run(t, func(f *sim.Fiber) {
		tx := begin(t, parts(stores, "abort"), cl)
		if err := tx.Prepare(f); err != nil {
			t.Errorf("prepare: %v", err)
			return
		}
		if err := tx.Abort(f); err != nil {
			t.Errorf("abort: %v", err)
			return
		}
		for i, st := range stores {
			if used, err := st.LogUsed(); err != nil || used != 0 {
				t.Errorf("store %d: log used after abort = %d (%v), want 0", i, used, err)
			}
			got, err := st.ViewData(64*i, 5)
			if err != nil || !bytes.Equal(got, make([]byte, 5)) {
				t.Errorf("store %d: data leaked through abort: %q (%v)", i, got, err)
			}
		}
		mustUnlocked(t, stores)

		// The aborted stores are immediately reusable.
		tx2 := begin(t, parts(stores, "after"), cl)
		if err := tx2.Prepare(f); err != nil {
			t.Errorf("prepare after abort: %v", err)
			return
		}
		if err := tx2.Commit(f); err != nil {
			t.Errorf("commit after abort: %v", err)
		}
		mustUnlocked(t, stores)
	})
}

// TestTwoPCCoordinatorCrashRecovery drives the orphaned-transaction path:
// the coordinator prepares both stores and then "crashes" (the DistTxn is
// dropped), leaving both groups locked with durable, unexecuted records.
// A recovery agent resolves each store with RecoverAbort and the stores
// come back clean: unlocked, empty logs, no data applied.
func TestTwoPCCoordinatorCrashRecovery(t *testing.T) {
	rig, cl := loggedRig(t, 2)
	stores := rig.stores[:2]
	rig.run(t, func(f *sim.Fiber) {
		tx := begin(t, parts(stores, "crash"), cl)
		if err := tx.Prepare(f); err != nil {
			t.Errorf("prepare: %v", err)
			return
		}
		// Coordinator crashes here: tx is never driven again.
		for i, st := range stores {
			if locked, _ := st.Locked(); !locked {
				t.Errorf("store %d: not locked after prepare", i)
			}
			if pend, err := st.PendingSeqs(); err != nil || len(pend) != 1 {
				t.Errorf("store %d: pending = %v (%v), want one record", i, pend, err)
			}
		}
		for i, st := range stores {
			rolled, err := RecoverAbort(f, st, 42)
			if err != nil {
				t.Errorf("store %d: recover: %v", i, err)
				return
			}
			if !rolled {
				t.Errorf("store %d: recovery found nothing to roll back", i)
			}
		}
		for i, st := range stores {
			if used, err := st.LogUsed(); err != nil || used != 0 {
				t.Errorf("store %d: log used after recovery = %d (%v)", i, used, err)
			}
			got, err := st.ViewData(64*i, 5)
			if err != nil || !bytes.Equal(got, make([]byte, 5)) {
				t.Errorf("store %d: data applied despite abort: %q (%v)", i, got, err)
			}
		}
		mustUnlocked(t, stores)

		// RecoverAbort on a clean store is a no-op.
		if rolled, err := RecoverAbort(f, stores[0], 42); err != nil || rolled {
			t.Errorf("recover on clean store = %v, %v; want false, nil", rolled, err)
		}
	})
}

// TestTwoPCPrepareTimeoutAbortsPreparedPrefix injects a fault plan that
// kills one of store 1's replica NICs before the transaction starts. The
// coordinator prepares store 0 (healthy), then store 1's lock CAS times
// out; Prepare must roll store 0 back and release its lock — no leaked
// group locks on any reachable store.
func TestTwoPCPrepareTimeoutAbortsPreparedPrefix(t *testing.T) {
	faults := &rdma.FaultPlan{
		NICs: []rdma.NICFault{{Host: "srv1/s1.1", At: sim.Time(5 * sim.Microsecond), Down: true}},
	}
	rig := newTwoPCRig(t, 3, faults, 200*sim.Microsecond) // store 2 holds the commit log
	cl, err := NewCommitLog(rig.stores[2], 2)
	if err != nil {
		t.Fatal(err)
	}
	rig.run(t, func(f *sim.Fiber) {
		f.Sleep(50 * sim.Microsecond) // let the crash land first
		tx := begin(t, parts(rig.stores[:2], "timeout"), cl)
		err := tx.Prepare(f)
		if !errors.Is(err, ErrAborted) {
			t.Errorf("prepare err = %v, want ErrAborted", err)
			return
		}
		if got := tx.Prepared(); got != 0 {
			t.Errorf("prepared after failed prepare = %d, want 0", got)
		}
		// Store 0 (healthy, was prepared first) must be fully rolled back.
		st := rig.stores[0]
		mustUnlocked(t, rig.stores[:1])
		if used, err := st.LogUsed(); err != nil || used != 0 {
			t.Errorf("store 0: log used = %d (%v), want 0", used, err)
		}
		// And usable: a single-store transaction commits straight through.
		tx2 := begin(t, parts(rig.stores[:1], "retry"), cl)
		if err := tx2.Prepare(f); err != nil {
			t.Errorf("prepare after aborted txn: %v", err)
			return
		}
		if err := tx2.Commit(f); err != nil {
			t.Errorf("commit after aborted txn: %v", err)
		}
	})
}

func TestTwoPCCommitWithoutPrepare(t *testing.T) {
	rig, cl := loggedRig(t, 1)
	rig.run(t, func(f *sim.Fiber) {
		tx := begin(t, parts(rig.stores[:1], "x"), cl)
		if err := tx.Commit(f); !errors.Is(err, ErrBadArgument) {
			t.Errorf("commit without prepare = %v, want ErrBadArgument", err)
		}
	})
}

// loggedRig builds nParts participant stores plus one extra store serving
// as the coordinator's commit log.
func loggedRig(t *testing.T, nParts int) (*twoPCRig, *CommitLog) {
	t.Helper()
	rig := newTwoPCRig(t, nParts+1, nil, 0)
	cl, err := NewCommitLog(rig.stores[nParts], nParts)
	if err != nil {
		t.Fatal(err)
	}
	return rig, cl
}

func TestBeginDistRejectsBadArguments(t *testing.T) {
	rig, cl := loggedRig(t, 2)
	ps := parts(rig.stores[:2], "x")
	if _, err := new(DistTxn).Begin(ps, cl, []int{0}); !errors.Is(err, ErrBadArgument) {
		t.Errorf("mismatched shard IDs: %v, want ErrBadArgument", err)
	}
	if _, err := new(DistTxn).Begin(ps, nil, []int{0, 1}); !errors.Is(err, ErrBadArgument) {
		t.Errorf("no commit log: %v, want ErrBadArgument", err)
	}
}

func TestTwoPCLoggedCommit(t *testing.T) {
	rig, cl := loggedRig(t, 2)
	rig.run(t, func(f *sim.Fiber) {
		tx, err := new(DistTxn).Begin(parts(rig.stores[:2], "logged"), cl, []int{0, 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Prepare(f); err != nil {
			t.Fatalf("prepare: %v", err)
		}
		if tx.TxnID() != 0 {
			t.Errorf("txnID before commit = %d, want 0", tx.TxnID())
		}
		if err := tx.Commit(f); err != nil {
			t.Fatalf("commit: %v", err)
		}
		if tx.TxnID() == 0 {
			t.Error("committed logged txn has no txnID")
		}
		for i, st := range rig.stores[:2] {
			want := []byte(fmt.Sprintf("logged-%d", i))
			got, err := st.ViewData(64*i, len(want))
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("store %d: data = %q (%v), want %q", i, got, err, want)
			}
		}
		// The record was truncated on the way out.
		recs, err := cl.Records()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 0 {
			t.Errorf("commit log holds %d records after clean commit, want 0", len(recs))
		}
		mustUnlocked(t, rig.stores[:2])
	})
}

// TestTwoPCCrashMidCommitRollsForward is the partial-commit bug in
// miniature: the coordinator dies once participant 0 has executed and
// unlocked, while participant 1 — frozen after its third group op (lock,
// record, tail) — still holds its prepared record. The commit record is
// durable, so recovery must roll participant 1 *forward* — RecoverAbort
// here would erase half the transaction.
func TestTwoPCCrashMidCommitRollsForward(t *testing.T) {
	rig, cl := loggedRig(t, 2)
	rig.run(t, func(f *sim.Fiber) {
		tx, err := new(DistTxn).Begin(parts(rig.stores[:2], "crash"), cl, []int{0, 1})
		if err != nil {
			t.Error(err)
			return
		}
		tx.SetStepHook(func(s Step, participant int) error {
			if s == StepExecute && participant == 0 {
				return ErrCoordinatorCrash
			}
			return nil
		})
		rig.stops[1].Budget = 3
		if err := tx.Prepare(f); err != nil {
			t.Errorf("prepare: %v", err)
			return
		}
		if err := tx.Commit(f); !errors.Is(err, ErrCoordinatorCrash) {
			t.Errorf("commit = %v, want injected crash", err)
			return
		}
		rig.stops[1].Budget = -1
		// Participant 0 committed and unlocked; participant 1 orphaned.
		if locked, _ := rig.stores[0].Locked(); locked {
			t.Error("participant 0 still locked")
		}
		if locked, _ := rig.stores[1].Locked(); !locked {
			t.Error("participant 1 lost its lock in the crash")
		}
		recs, err := cl.Records()
		if err != nil || len(recs) != 1 {
			t.Errorf("records = %v (%v), want the commit record", recs, err)
			return
		}
		// Recovery: both stores are named by the record; 0 is already done.
		if n, ok, err := RecoverCommit(f, rig.stores[0], 42); n != 0 || ok || err != nil {
			t.Errorf("recover participant 0 = (%d, %v, %v), want no-op", n, ok, err)
		}
		n, ok, err := RecoverCommit(f, rig.stores[1], 42)
		if err != nil || !ok || n != 1 {
			t.Errorf("recover participant 1 = (%d, %v, %v), want 1 record applied", n, ok, err)
			return
		}
		for i, st := range rig.stores[:2] {
			want := []byte(fmt.Sprintf("crash-%d", i))
			got, err := st.ViewData(64*i, len(want))
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("store %d: data = %q (%v), want %q", i, got, err, want)
			}
		}
		mustUnlocked(t, rig.stores[:2])
	})
}

// TestTwoPCCrashBeforeCommitPointRollsBack crashes the coordinator after
// the last prepare but before the commit record lands: no record, so
// presumed abort resolves both participants back to empty.
func TestTwoPCCrashBeforeCommitPointRollsBack(t *testing.T) {
	rig, cl := loggedRig(t, 2)
	rig.run(t, func(f *sim.Fiber) {
		tx, err := new(DistTxn).Begin(parts(rig.stores[:2], "gone"), cl, []int{0, 1})
		if err != nil {
			t.Fatal(err)
		}
		tx.SetStepHook(func(s Step, participant int) error {
			if s == StepAppend && participant == 1 {
				return ErrCoordinatorCrash
			}
			return nil
		})
		if err := tx.Prepare(f); !errors.Is(err, ErrCoordinatorCrash) {
			t.Fatalf("prepare = %v, want injected crash", err)
		}
		if recs, err := cl.Records(); err != nil || len(recs) != 0 {
			t.Fatalf("records = %v (%v), want none before the commit point", recs, err)
		}
		for i, st := range rig.stores[:2] {
			rolled, err := RecoverAbort(f, st, 42)
			if err != nil || !rolled {
				t.Errorf("store %d: recover abort = (%v, %v)", i, rolled, err)
			}
			if got, err := st.ViewData(64*i, 4); err != nil || !bytes.Equal(got, make([]byte, 4)) {
				t.Errorf("store %d: aborted data visible: %q (%v)", i, got, err)
			}
		}
		mustUnlocked(t, rig.stores[:2])
	})
}

func TestRecoverCommitSkipsForeignLock(t *testing.T) {
	rig := newTwoPCRig(t, 1, nil, 0)
	rig.run(t, func(f *sim.Fiber) {
		// Unlocked store: nothing to do.
		if n, ok, err := RecoverCommit(f, rig.stores[0], 42); n != 0 || ok || err != nil {
			t.Errorf("unlocked store = (%d, %v, %v), want no-op", n, ok, err)
		}
		// Locked under a different token: not ours, skip.
		if err := rig.stores[0].WrLock(f); err != nil {
			t.Fatal(err)
		}
		if n, ok, err := RecoverCommit(f, rig.stores[0], 999); n != 0 || ok || err != nil {
			t.Errorf("foreign token = (%d, %v, %v), want no-op", n, ok, err)
		}
		if err := rig.stores[0].WrUnlock(f); err != nil {
			t.Fatal(err)
		}
	})
}

func TestStepString(t *testing.T) {
	want := map[Step]string{
		StepLock: "lock", StepAppend: "append", StepLogCommit: "log-commit",
		StepExecute: "execute", StepLogTruncate: "log-truncate",
		Step(99): "step(99)",
	}
	for s, w := range want {
		if got := s.String(); got != w {
			t.Errorf("Step(%d).String() = %q, want %q", int(s), got, w)
		}
	}
}

// TestTwoPCCommitRecordFullAborts exhausts the commit log before the
// transaction reaches its commit point: the record append fails, nothing
// has executed, and Commit must abort cleanly instead of going in doubt.
func TestTwoPCCommitRecordFullAborts(t *testing.T) {
	rig, cl := loggedRig(t, 2)
	rig.run(t, func(f *sim.Fiber) {
		for i := 0; i < cl.Slots(); i++ {
			if _, err := cl.Append(f, 7, []int{0}); err != nil {
				t.Fatalf("fill %d: %v", i, err)
			}
		}
		tx, err := new(DistTxn).Begin(parts(rig.stores[:2], "full"), cl, []int{0, 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Prepare(f); err != nil {
			t.Fatalf("prepare: %v", err)
		}
		err = tx.Commit(f)
		if !errors.Is(err, ErrAborted) || !errors.Is(err, ErrCommitLogFull) {
			t.Fatalf("commit = %v, want ErrAborted wrapping ErrCommitLogFull", err)
		}
		for i, st := range rig.stores[:2] {
			if used, e := st.LogUsed(); e != nil || used != 0 {
				t.Errorf("store %d: log used = %d (%v), want 0", i, used, e)
			}
			if got, e := st.ViewData(64*i, 4); e != nil || !bytes.Equal(got, make([]byte, 4)) {
				t.Errorf("store %d: aborted data visible: %q (%v)", i, got, e)
			}
		}
		mustUnlocked(t, rig.stores[:2])
	})
}

// TestStoreVisitPendingAndTruncate rounds out the checkpoint-side store
// surface: pending records are visitable without executing, TruncateTo
// the tail drops them, and MirrorSize reports the configured footprint.
func TestStoreVisitPendingAndTruncate(t *testing.T) {
	rig := newTwoPCRig(t, 1, nil, 0)
	st := rig.stores[0]
	if got := st.MirrorSize(); got != MirrorSizeFor(testLog, testData) {
		t.Errorf("mirror size = %d, want %d", got, MirrorSizeFor(testLog, testData))
	}
	rig.run(t, func(f *sim.Fiber) {
		if err := st.WrLock(f); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Append(f, []wal.Entry{{Off: 0, Data: []byte("pending")}}); err != nil {
			t.Fatal(err)
		}
		var seen int
		err := st.VisitPending(func(seq uint64, entries []wal.Entry) error {
			seen++
			if len(entries) != 1 || !bytes.Equal(entries[0].Data, []byte("pending")) {
				t.Errorf("visited entries = %+v", entries)
			}
			return nil
		})
		if err != nil || seen != 1 {
			t.Fatalf("visit = %v, saw %d records, want 1", err, seen)
		}
		tail, err := st.Tail()
		if err != nil {
			t.Fatal(err)
		}
		if err := st.TruncateTo(f, tail); err != nil {
			t.Fatal(err)
		}
		if used, err := st.LogUsed(); err != nil || used != 0 {
			t.Errorf("log used after truncate = %d (%v), want 0", used, err)
		}
		// The truncated record must not apply.
		if got, err := st.ViewData(0, 7); err != nil || !bytes.Equal(got, make([]byte, 7)) {
			t.Errorf("truncated data visible: %q (%v)", got, err)
		}
		if err := st.WrUnlock(f); err != nil {
			t.Fatal(err)
		}
	})
}

// TestTwoPCCrashSweep kills the coordinator after every protocol step of a
// 2-participant logged transaction and recovers by the commit-record rule:
// shards named by a record roll forward, the rest roll back. Every kill
// point must leave an all-or-nothing outcome and no leaked locks.
func TestTwoPCCrashSweep(t *testing.T) {
	const span = 2
	// Steps: (lock, append) per participant, log-commit, execute (and
	// unlock) per participant, log-truncate.
	totalSteps := 3*span + 2
	commitPoint := 2*span + 1 // steps before the record is durable
	for kill := 1; kill <= totalSteps; kill++ {
		rig, cl := loggedRig(t, span)
		rig.run(t, func(f *sim.Fiber) {
			tx, err := new(DistTxn).Begin(parts(rig.stores[:span], "sweep"), cl, []int{0, 1})
			if err != nil {
				t.Fatal(err)
			}
			step := 0
			tx.SetStepHook(func(s Step, participant int) error {
				step++
				if step == kill {
					return ErrCoordinatorCrash
				}
				return nil
			})
			err = tx.Prepare(f)
			if err == nil {
				err = tx.Commit(f)
			}
			if kill == totalSteps {
				// The "crash" fired after the final step: the transaction
				// is complete and the error is immaterial to durability.
				if !errors.Is(err, ErrCoordinatorCrash) {
					t.Fatalf("kill %d: err = %v", kill, err)
				}
			} else if !errors.Is(err, ErrCoordinatorCrash) {
				t.Fatalf("kill %d: err = %v, want injected crash", kill, err)
			}

			wantRec := kill >= commitPoint && kill < totalSteps
			wantCommitted := kill >= commitPoint
			recoverAndAudit(t, f, rig, cl, span, fmt.Sprintf("kill %d", kill), "sweep", wantRec, wantCommitted)
		})
	}
}

func TestStoreDataRangeChecks(t *testing.T) {
	rig := newTwoPCRig(t, 1, nil, 0)
	st := rig.stores[0]
	if _, err := st.ViewData(-1, 8); !errors.Is(err, ErrBadArgument) {
		t.Errorf("negative read offset: %v", err)
	}
	if _, err := st.ViewData(testData, 8); !errors.Is(err, ErrBadArgument) {
		t.Errorf("read past data region: %v", err)
	}
	rig.run(t, func(f *sim.Fiber) {
		if err := st.WriteData(f, -1, []byte("x")); !errors.Is(err, ErrBadArgument) {
			t.Errorf("negative write offset: %v", err)
		}
		if err := st.WriteData(f, testData, []byte("x")); !errors.Is(err, ErrBadArgument) {
			t.Errorf("write past data region: %v", err)
		}
	})
}
