package txn

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"hyperloop/internal/protocol"
	"hyperloop/internal/protocol/protocoltest"
	"hyperloop/internal/sim"
)

// slotImage reads commit-log slot 0 from a member's durable image.
func slotImage(t *testing.T, rig *twoPCRig, group int, maxSpan int) []byte {
	t.Helper()
	img := make([]byte, CommitLogSlotSize(maxSpan))
	if err := rig.groups[group].ReplicaNIC(0).Memory().ReadDurable(rig.stores[group].DataOff(), img); err != nil {
		t.Errorf("commit-log member image: %v", err)
	}
	return img
}

// TestFailedCommitRecordAppendLeavesNoLiveRecord: the tail of the commit
// log's chain drops off 3 µs into the commit-record append, so the record
// has reached member 1 although Commit reports the abort it must. The
// coordinator's next transaction on the same shards then dies right after
// its first append, with the other participant locked only. The record of
// the aborted transaction names both shards and the dead transaction holds
// the same token on them: were that record still live, recovery would roll
// the first shard forward — data nobody committed. The slot stays dirty
// until a truncate of it is acknowledged, so the second transaction may not
// append at all.
func TestFailedCommitRecordAppendLeavesNoLiveRecord(t *testing.T) {
	const span = 2
	rig := newTwoPCRig(t, span+1, nil, 200*sim.Microsecond)
	cl, err := NewCommitLog(rig.stores[span], span)
	if err != nil {
		t.Fatal(err)
	}
	rig.run(t, func(f *sim.Fiber) {
		tail := rig.groups[span].ReplicaNIC(1)
		first, err := new(DistTxn).Begin(parts(rig.stores[:span], "first"), cl, []int{0, 1})
		if err != nil {
			t.Error(err)
			return
		}
		if err := first.Prepare(f); err != nil {
			t.Errorf("first prepare: %v", err)
			return
		}
		f.Kernel().AfterFunc(3*sim.Microsecond, func() { tail.SetDown(true) }, nil)
		if err := first.Commit(f); !errors.Is(err, ErrAborted) || !errors.Is(err, protocol.ErrTimeout) {
			t.Errorf("first commit = %v, want ErrAborted wrapping the commit record's timeout", err)
			return
		}
		tail.SetDown(false)

		second, err := new(DistTxn).Begin(parts(rig.stores[:span], "secnd"), cl, []int{0, 1})
		if err != nil {
			t.Error(err)
			return
		}
		rig.stops[1].Budget = 1 // participant 1: its lock and nothing more
		second.SetStepHook(func(s Step, _ int) error {
			if s == StepAppend {
				return ErrCoordinatorCrash
			}
			return nil
		})
		if err := second.Prepare(f); !errors.Is(err, ErrAborted) {
			t.Errorf("second prepare = %v, want ErrAborted: no truncate of the aborted record was acknowledged", err)
		}
		rig.stops[1].Budget = -1
		recoverAndAudit(t, f, rig, cl, span, "after the second transaction", "secnd", false, false)
	})
}

// cleanLogRig is a span-2 logged rig on which transaction "older" has
// committed while its commit log's group was frozen right behind the commit
// record: the truncate could not even be posted, so it is owed.
func cleanLogRig(t *testing.T, f *sim.Fiber, rig *twoPCRig, cl *CommitLog) bool {
	t.Helper()
	older, err := new(DistTxn).Begin(parts(rig.stores[:2], "older"), cl, []int{0, 1})
	if err != nil {
		t.Error(err)
		return false
	}
	if err := older.Prepare(f); err != nil {
		t.Errorf("older prepare: %v", err)
		return false
	}
	rig.stops[2].Budget = 1 // the commit record, then nothing
	if err := older.Commit(f); err != nil {
		t.Errorf("older commit = %v: a truncate that cannot be posted is not the committed caller's problem", err)
		return false
	}
	if _, ok := decodeCommitRecord(slotImage(t, rig, 2, 2)); !ok {
		t.Error("the older transaction's record is gone although its truncate never went out")
	}
	return true
}

// auditAfterOlder checks the rig holds exactly the older transaction: its
// data on both stores, nothing pending, no lock, a clean commit log on the
// client and on the members.
func auditAfterOlder(t *testing.T, f *sim.Fiber, rig *twoPCRig, cl *CommitLog) {
	t.Helper()
	for i, st := range rig.stores[:2] {
		want := []byte(fmt.Sprintf("older-%d", i))
		if got, err := st.ViewData(64*i, len(want)); err != nil || !bytes.Equal(got, want) {
			t.Errorf("store %d data = %q (%v), want %q", i, got, err, want)
		}
		if used, err := st.LogUsed(); err != nil || used != 0 {
			t.Errorf("store %d log used = %d (%v)", i, used, err)
		}
	}
	mustUnlocked(t, rig.stores[:2])
	if recs, err := cl.Records(); err != nil || len(recs) != 0 {
		t.Errorf("commit log holds %v (%v)", recs, err)
	}
	if !bytes.Equal(slotImage(t, rig, 2, 2)[:8], clZero[:]) {
		t.Error("a member still holds the older transaction's record")
	}
}

// TestCleanLogRule: while a truncate of another transaction's record is
// unacknowledged, Prepare posts no append.
func TestCleanLogRule(t *testing.T) {
	// The newer transaction dies at its first lock. Every participant has
	// admitted its lock gCAS at most; recovery settles the owed truncate
	// before it reads the log, and lands on the older transaction alone.
	t.Run("killed at lock", func(t *testing.T) {
		rig, cl := loggedRig(t, 2)
		rig.run(t, func(f *sim.Fiber) {
			if !cleanLogRig(t, f, rig, cl) {
				return
			}
			const budget = 100
			rig.stops[0].Budget, rig.stops[1].Budget = budget, budget
			newer, _ := new(DistTxn).Begin(parts(rig.stores[:2], "newer"), cl, []int{0, 1})
			newer.SetStepHook(func(s Step, _ int) error {
				if s == StepLock {
					return ErrCoordinatorCrash
				}
				return nil
			})
			if err := newer.Prepare(f); !errors.Is(err, ErrCoordinatorCrash) {
				t.Errorf("newer prepare = %v, want the injected crash", err)
			}
			for i, stop := range rig.stops[:2] {
				if ops := budget - stop.Budget; ops > 1 {
					t.Errorf("participant %d admitted %d group ops, want its lock gCAS at most", i, ops)
				}
				stop.Budget = -1
			}
			rig.stops[2].Budget = -1
			if err := cl.Settle(f); err != nil {
				t.Errorf("settle with the commit log's group back: %v", err)
			}
			for i, st := range rig.stores[:2] {
				if _, err := RecoverAbort(f, st, 42); err != nil {
					t.Errorf("recover abort %d: %v", i, err)
				}
			}
			auditAfterOlder(t, f, rig, cl)
		})
	})
	// The newer transaction is let run: its Prepare finds the truncate
	// owed, issues it again, fails, and aborts with nothing appended. With
	// the commit log's group back the same transaction goes through.
	t.Run("truncate fails", func(t *testing.T) {
		rig, cl := loggedRig(t, 2)
		rig.run(t, func(f *sim.Fiber) {
			if !cleanLogRig(t, f, rig, cl) {
				return
			}
			var issued [2]int64
			for i := range issued {
				issued[i], _ = rig.groups[i].Stats()
			}
			newer, _ := new(DistTxn).Begin(parts(rig.stores[:2], "newer"), cl, []int{0, 1})
			err := newer.Prepare(f)
			if !errors.Is(err, ErrAborted) || !errors.Is(err, protocoltest.ErrStopped) {
				t.Errorf("newer prepare = %v, want ErrAborted wrapping the failed truncate", err)
			}
			for i := range issued {
				if now, _ := rig.groups[i].Stats(); now-issued[i] != 2 {
					t.Errorf("participant %d saw %d group ops, want its lock and its release", i, now-issued[i])
				}
			}
			mustUnlocked(t, rig.stores[:2])

			rig.stops[2].Budget = -1
			again, _ := new(DistTxn).Begin(parts(rig.stores[:2], "older"), cl, []int{0, 1})
			if err := again.Prepare(f); err != nil {
				t.Errorf("prepare with the commit log's group back: %v", err)
				return
			}
			if err := again.Commit(f); err != nil {
				t.Errorf("commit with the commit log's group back: %v", err)
				return
			}
			if err := cl.Settle(f); err != nil {
				t.Error(err)
			}
			auditAfterOlder(t, f, rig, cl)
		})
	})
}

// TestOneSlotCommitLogRunsBackToBack: every transaction finds the one slot
// free, because Prepare has waited for the previous truncate; and an Append
// that finds the slot still being truncated settles rather than report the
// log full.
func TestOneSlotCommitLogRunsBackToBack(t *testing.T) {
	rig := newTwoPCRig(t, 3, nil, 0)
	one, err := New(rig.stops[2], Config{LogSize: testLog, DataSize: CommitLogSizeFor(1, 2), LockToken: 42})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCommitLog(one, 2)
	if err != nil || cl.Slots() != 1 {
		t.Fatalf("commit log = %v slots (%v), want 1", cl.Slots(), err)
	}
	rig.run(t, func(f *sim.Fiber) {
		for n := 0; n < 100; n++ {
			tx, err := new(DistTxn).Begin(parts(rig.stores[:2], fmt.Sprintf("n%02d", n)), cl, []int{0, 1})
			if err == nil {
				err = tx.Prepare(f)
			}
			if err == nil {
				err = tx.Commit(f)
			}
			if err != nil {
				t.Errorf("transaction %d: %v", n, err)
				return
			}
		}
		// The 100th truncate is in flight: a bare Append must wait for it.
		id, err := cl.Append(f, 42, []int{0})
		if err != nil {
			t.Errorf("append behind an unacknowledged truncate: %v", err)
			return
		}
		if _, err := cl.Append(f, 42, []int{0}); !errors.Is(err, ErrCommitLogFull) {
			t.Errorf("append into a live slot = %v, want ErrCommitLogFull", err)
		}
		if err := cl.Truncate(f, id); err != nil {
			t.Error(err)
		}
		if n := rig.groups[2].InFlight(); n != 0 {
			t.Errorf("%d ops in flight on the commit log's group after a blocking truncate", n)
		}
	})
}
