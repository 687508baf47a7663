package shard

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"hyperloop/internal/sim"
	"hyperloop/internal/txn"
)

// spanWrites is the sweep transaction: key i lives on shard i (sweepConfig).
func spanWrites(span int) []Write {
	writes := make([]Write, span)
	for i := range writes {
		writes[i] = Write{Key: uint64(i), Data: []byte(fmt.Sprintf("v%d", i))}
	}
	return writes
}

// recoverAndAudit plays the restarted coordinator after spanWrites(span)
// crashed: Router.Recover must resolve in the direction wantCommitted
// says, leave every shard's durable data all-or-nothing, leak no lock,
// drain every log and the commit log, and find nothing on a second pass.
func recoverAndAudit(t *testing.T, f *sim.Fiber, r *rig, span int, wantCommitted bool) {
	t.Helper()
	r.router.SetTxnStepHook(nil)
	rs, err := r.router.Recover(f)
	if err != nil {
		t.Errorf("recover: %v", err)
		return
	}
	if wantCommitted && rs.Back != 0 {
		t.Errorf("recover rolled %d shards back past the commit point (stats %+v)", rs.Back, rs)
	}
	if !wantCommitted && rs.Forward != 0 {
		t.Errorf("recover rolled %d shards forward before the commit point (stats %+v)", rs.Forward, rs)
	}

	// All-or-nothing at the durable level: every shard shows
	// its write, or none does.
	for i := 0; i < span; i++ {
		want := make([]byte, 2)
		if wantCommitted {
			want = []byte(fmt.Sprintf("v%d", i))
		}
		got, err := r.router.Shard(i).Store.ViewData(0, len(want))
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("shard %d data = %q (%v), want %q", i, got, err, want)
		}
	}
	// No leaked locks, no pending log records, no live
	// commit records.
	for i := 0; i < r.router.Shards(); i++ {
		st := r.router.Shard(i).Store
		if locked, err := st.Locked(); err != nil || locked {
			t.Errorf("shard %d: lock leaked (locked=%v, err=%v)", i, locked, err)
		}
		if used, err := st.LogUsed(); err != nil || used != 0 {
			t.Errorf("shard %d: log used = %d (%v)", i, used, err)
		}
	}
	if recs, err := r.router.CommitLog().Records(); err != nil || len(recs) != 0 {
		t.Errorf("commit log not drained: %v (%v)", recs, err)
	}
	// Idempotent.
	if rs, err := r.router.Recover(f); err != nil || rs != (RecoverStats{}) {
		t.Errorf("second recover = %+v, %v", rs, err)
	}
}

// sweepConfig maps key i → shard i so a span-S transaction touches
// exactly shards 0..S-1, each write landing in slot 0 (data offset 0).
func sweepConfig(shards int) Config {
	cfg := testConfig(shards)
	cfg.Policy = Range
	cfg.Keys = uint64(shards)
	return cfg
}

// TestCrashPointSweep kills the coordinator after every protocol step for
// transactions spanning 1, 2 and 4 shards, runs Router.Recover, and
// asserts the outcome is all-or-nothing at the durable level with no
// leaked group locks and a drained commit log; then retries the
// transaction and checks it commits and is counted exactly once.
func TestCrashPointSweep(t *testing.T) {
	for _, span := range []int{1, 2, 4} {
		// Steps per transaction: (lock, append) per shard, log-commit,
		// execute (and unlock) per shard, log-truncate.
		totalSteps := 3*span + 2
		commitPoint := 2*span + 1 // the step at which the record is durable
		for kill := 1; kill <= totalSteps; kill++ {
			kill := kill
			t.Run(fmt.Sprintf("span%d/kill%d", span, kill), func(t *testing.T) {
				r := newRig(t, sweepConfig(4), nil, 0)
				r.run(t, func(f *sim.Fiber) {
					writes := spanWrites(span)
					step := 0
					r.router.SetTxnStepHook(func(s txn.Step, participant int) error {
						step++
						if step == kill {
							return txn.ErrCoordinatorCrash
						}
						return nil
					})
					err := r.router.Txn(f, writes)
					if kill == totalSteps {
						// The crash fired after the last protocol action;
						// durability is already decided either way.
						if !errors.Is(err, txn.ErrCoordinatorCrash) {
							t.Fatalf("txn err = %v", err)
						}
					} else if !errors.Is(err, txn.ErrCoordinatorCrash) {
						t.Fatalf("txn err = %v, want injected crash", err)
					}
					if st := r.router.Stats(); st.Commits != 0 || st.Aborts != 0 || st.InDoubt != 0 {
						t.Errorf("crashed txn was counted: %+v", st)
					}

					// The "restarted" coordinator recovers.
					wantCommitted := kill >= commitPoint
					recoverAndAudit(t, f, r, span, wantCommitted)

					// The client retries the whole transaction; it must
					// commit and be the only counted outcome.
					if err := r.router.Txn(f, writes); err != nil {
						t.Fatalf("retry after recover: %v", err)
					}
					st := r.router.Stats()
					if st.Commits != 1 || st.Aborts != 0 || st.InDoubt != 0 {
						t.Errorf("retried txn stats = %+v, want exactly one commit", st)
					}
					for i := 0; i < span; i++ {
						want := fmt.Sprintf("v%d", i)
						if got, err := r.router.Get(uint64(i)); err != nil || string(got) != want {
							t.Errorf("get(%d) after retry = %q (%v), want %q", i, got, err, want)
						}
					}
				})
			})
		}
	}
}

// TestInDoubtRecoveredThenRetriedCountedOnce produces an in-doubt outcome
// (an injected failure once participant 1 has executed and unlocked — past
// the commit point, before the truncate), then recovers and retries: the
// transaction must be counted exactly once as InDoubt and exactly once as
// a commit on retry, never as an abort.
func TestInDoubtRecoveredThenRetriedCountedOnce(t *testing.T) {
	r := newRig(t, sweepConfig(2), nil, 0)
	r.run(t, func(f *sim.Fiber) {
		writes := []Write{
			{Key: 0, Data: []byte("aa")},
			{Key: 1, Data: []byte("bb")},
		}
		r.router.SetTxnStepHook(func(s txn.Step, participant int) error {
			if s == txn.StepExecute && participant == 1 {
				return fmt.Errorf("%w: injected mid-commit group failure", txn.ErrInDoubt)
			}
			return nil
		})
		err := r.router.Txn(f, writes)
		if !errors.Is(err, txn.ErrInDoubt) {
			t.Fatalf("txn err = %v, want txn.ErrInDoubt", err)
		}
		st := r.router.Stats()
		if st.InDoubt != 1 || st.Commits != 0 || st.Aborts != 0 {
			t.Fatalf("in-doubt stats = %+v, want exactly one InDoubt", st)
		}

		// Recover: the commit record names both shards, so the still-locked
		// one rolls forward; nothing rolls back.
		r.router.SetTxnStepHook(nil)
		rs, err := r.router.Recover(f)
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		if rs.Back != 0 || rs.Records == 0 {
			t.Errorf("recover stats = %+v, want roll-forward only", rs)
		}
		for i := 0; i < 2; i++ {
			st := r.router.Shard(i).Store
			if locked, err := st.Locked(); err != nil || locked {
				t.Errorf("shard %d: lock leaked (locked=%v, err=%v)", i, locked, err)
			}
		}
		want := map[int]string{0: "aa", 1: "bb"}
		for i, w := range want {
			got, err := r.router.Shard(i).Store.ViewData(0, len(w))
			if err != nil || string(got) != w {
				t.Errorf("shard %d data = %q (%v), want %q", i, got, err, w)
			}
		}

		// Retry: a fresh transaction, counted as the one commit.
		if err := r.router.Txn(f, writes); err != nil {
			t.Fatalf("retry: %v", err)
		}
		st = r.router.Stats()
		if st.InDoubt != 1 || st.Commits != 1 || st.Aborts != 0 {
			t.Errorf("final stats = %+v, want {InDoubt:1 Commits:1 Aborts:0}", st)
		}
	})
}

// TestRecoverSettlesBeforeItScans: a committed transaction leaves its
// commit record's truncate posted, or — when the commit log's group was
// unreachable — owed. Recover must see both through before it reads the
// log: the record of a finished transaction is no work for recovery, and
// afterwards nothing is in flight and no member holds the record.
func TestRecoverSettlesBeforeItScans(t *testing.T) {
	r := newRig(t, sweepConfig(2), nil, 0)
	slot := make([]byte, 8)
	slotOff := txn.MirrorSizeFor(coordLogSize, 0) // the commit log's slot 0: behind the control block and the WAL ring
	memberSlot := func() []byte {
		if err := r.coordGroup.ReplicaNIC(1).Memory().ReadDurable(slotOff, slot); err != nil {
			t.Error(err)
		}
		return slot
	}
	r.run(t, func(f *sim.Fiber) {
		for _, leg := range []struct {
			name   string
			budget int // group ops the commit log's group admits during the transaction
		}{
			{"truncate in flight", -1},
			{"truncate owed", 1}, // the commit record, then nothing
		} {
			r.coordStop.Budget = leg.budget
			if err := r.router.Txn(f, spanWrites(2)); err != nil {
				t.Errorf("%s: txn: %v", leg.name, err)
				return
			}
			r.coordStop.Budget = -1
			if bytes.Equal(memberSlot(), make([]byte, 8)) {
				t.Errorf("%s: the record is already gone from the commit log's tail member: nothing left to settle", leg.name)
			}
			rs, err := r.router.Recover(f)
			if err != nil || rs != (RecoverStats{}) {
				t.Errorf("%s: recover = %+v, %v, want nothing to resolve", leg.name, rs, err)
			}
			if n := r.coordGroup.InFlight(); n != 0 {
				t.Errorf("%s: %d ops in flight on the commit log's group after Recover", leg.name, n)
			}
			if !bytes.Equal(memberSlot(), make([]byte, 8)) {
				t.Errorf("%s: the commit log's tail member still holds the record after Recover", leg.name)
			}
		}
	})
}

func TestGetCountsMisses(t *testing.T) {
	r := newRig(t, testConfig(2), nil, 0)
	r.run(t, func(f *sim.Fiber) {
		if got, err := r.router.Get(99); err != nil || got != nil {
			t.Fatalf("get of unwritten key = %q, %v", got, err)
		}
		if err := r.router.Put(f, 1, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if _, err := r.router.Get(1); err != nil {
			t.Fatal(err)
		}
		if _, err := r.router.Get(98); err != nil {
			t.Fatal(err)
		}
		st := r.router.Stats()
		if st.Gets != 3 || st.Misses != 2 {
			t.Errorf("stats = %+v, want Gets=3 Misses=2", st)
		}
	})
}

// TestAbortReleasesFreshSlots drives the slot-directory leak: a stream of
// aborting transactions on new keys must not consume SlotsPerShard
// capacity, and reclaimed slots are reused by later writes.
func TestAbortReleasesFreshSlots(t *testing.T) {
	cfg := testConfig(1)
	cfg.SlotsPerShard = 4
	r := newRig(t, cfg, nil, 0)
	r.run(t, func(f *sim.Fiber) {
		// Aborting far more transactions than there are slots: every
		// abort must hand its fresh slot back.
		crash := errors.New("validation failure")
		for i := 0; i < 3*cfg.SlotsPerShard; i++ {
			key := uint64(1000 + i)
			// Oversized value fails validation after the slot allocation.
			err := r.router.Txn(f, []Write{
				{Key: key, Data: []byte("fits")},
				{Key: key + 100000, Data: make([]byte, cfg.SlotSize+1)},
			})
			if !errors.Is(err, ErrBadArgument) {
				t.Fatalf("txn %d: err = %v, want ErrBadArgument (%v)", i, err, crash)
			}
		}
		// All capacity is still available.
		for i := 0; i < cfg.SlotsPerShard; i++ {
			if err := r.router.Put(f, uint64(i), []byte("keep")); err != nil {
				t.Fatalf("put %d after aborts: %v", i, err)
			}
		}
		// And now the shard is genuinely full.
		if err := r.router.Put(f, 77, []byte("x")); !errors.Is(err, ErrShardFull) {
			t.Errorf("put into full shard: %v, want ErrShardFull", err)
		}
	})
}

// TestPreparedAbortReleasesFreshSlots covers the 2PC abort path: a
// prepare that fails (commit log full) must release slots allocated for
// the transaction's new keys.
func TestPreparedAbortReleasesFreshSlots(t *testing.T) {
	cfg := testConfig(1)
	cfg.SlotsPerShard = 4
	r := newRig(t, cfg, nil, 0)
	r.run(t, func(f *sim.Fiber) {
		// Exhaust the commit log so phase two's record append fails and
		// the transaction aborts after a successful prepare.
		cl := r.router.CommitLog()
		for i := 0; i < cl.Slots(); i++ {
			if _, err := cl.Append(f, 999, []int{0}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3*cfg.SlotsPerShard; i++ {
			err := r.router.Txn(f, []Write{{Key: uint64(2000 + i), Data: []byte("x")}})
			if !errors.Is(err, txn.ErrAborted) {
				t.Fatalf("txn %d: err = %v, want txn.ErrAborted", i, err)
			}
		}
		st := r.router.Stats()
		if st.Aborts != uint64(3*cfg.SlotsPerShard) {
			t.Errorf("aborts = %d, want %d", st.Aborts, 3*cfg.SlotsPerShard)
		}
		// Drain the foreign records and confirm full capacity remains.
		recs, err := cl.Records()
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if err := cl.Truncate(f, rec.TxnID); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < cfg.SlotsPerShard; i++ {
			if err := r.router.Put(f, uint64(i), []byte("keep")); err != nil {
				t.Fatalf("put %d after aborts: %v", i, err)
			}
		}
	})
}
