package txn

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"hyperloop/internal/protocol/protocoltest"
	"hyperloop/internal/sim"
	"hyperloop/internal/wal"
)

// recoverAndAudit resolves a crashed transaction over the rig's first span
// stores exactly as Router.Recover does — stores named by a live commit
// record roll forward, the rest roll back, then the records are truncated
// — and asserts the outcome: a record survived the crash iff wantRec,
// every participant shows parts()'s payload iff wantCommitted, logs are
// drained, no lock leaked, the commit log is empty.
func recoverAndAudit(t *testing.T, f *sim.Fiber, rig *twoPCRig, cl *CommitLog, span int, label, payload string, wantRec, wantCommitted bool) {
	t.Helper()
	recs, err := cl.Records()
	if err != nil {
		t.Errorf("%s: records: %v", label, err)
		return
	}
	committed := map[int]bool{}
	for _, rec := range recs {
		if rec.Token != 42 {
			continue
		}
		for _, sid := range rec.Shards {
			committed[sid] = true
		}
	}
	if (len(recs) > 0) != wantRec {
		t.Errorf("%s: %d live records, want record=%v", label, len(recs), wantRec)
	}
	for i := 0; i < span; i++ {
		if committed[i] {
			if _, _, err := RecoverCommit(f, rig.stores[i], 42); err != nil {
				t.Errorf("%s: recover commit %d: %v", label, i, err)
				return
			}
		} else if _, err := RecoverAbort(f, rig.stores[i], 42); err != nil {
			t.Errorf("%s: recover abort %d: %v", label, i, err)
			return
		}
	}
	for _, rec := range recs {
		if err := cl.Truncate(f, rec.TxnID); err != nil {
			t.Errorf("%s: truncate: %v", label, err)
			return
		}
	}

	// All-or-nothing: every participant shows the write, or none — on the
	// client's mirror and on the chain's tail replica alike.
	for i := 0; i < span; i++ {
		want := make([]byte, len(payload)+2)
		if wantCommitted {
			want = []byte(fmt.Sprintf("%s-%d", payload, i))
		}
		got, err := rig.stores[i].ViewData(64*i, len(want))
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: store %d data = %q (%v), want %q", label, i, got, err, want)
		}
		img := make([]byte, len(want))
		if err := rig.groups[i].ReplicaNIC(1).Memory().Read(rig.stores[i].DataOff()+64*i, img); err != nil {
			t.Errorf("%s: store %d replica read: %v", label, i, err)
		} else if !bytes.Equal(img, want) {
			t.Errorf("%s: store %d replica data = %q, want %q", label, i, img, want)
		}
		if used, err := rig.stores[i].LogUsed(); err != nil || used != 0 {
			t.Errorf("%s: store %d log used = %d (%v)", label, i, used, err)
		}
	}
	mustUnlocked(t, rig.stores[:span])
	if recs, err := cl.Records(); err != nil || len(recs) != 0 {
		t.Errorf("%s: commit log not drained: %v (%v)", label, recs, err)
	}
}

// TestPrepareRejectsBadParticipantLists: an empty list, a nil store and a
// store listed twice are refused before any lock is taken.
func TestPrepareRejectsBadParticipantLists(t *testing.T) {
	rig, cl := loggedRig(t, 2)
	entry := []wal.Entry{{Off: 0, Data: []byte("x")}}
	cases := []struct {
		name  string
		parts []Participant
		ids   []int
	}{
		{"empty", nil, nil},
		{"nil store", []Participant{{Store: rig.stores[0], Entries: entry}, {Entries: entry}}, []int{0, 1}},
		{"repeated store", []Participant{{Store: rig.stores[0], Entries: entry}, {Store: rig.stores[0], Entries: entry}}, []int{0, 1}},
	}
	rig.run(t, func(f *sim.Fiber) {
		for _, c := range cases {
			tx, err := new(DistTxn).Begin(c.parts, cl, c.ids)
			if err != nil {
				t.Errorf("%s: begin: %v", c.name, err)
				continue
			}
			start := f.Now()
			err = tx.Prepare(f)
			if !errors.Is(err, ErrAborted) || !errors.Is(err, ErrBadArgument) {
				t.Errorf("%s: prepare = %v, want ErrAborted wrapping ErrBadArgument", c.name, err)
			}
			if f.Now() != start {
				t.Errorf("%s: prepare issued group ops before rejecting the list", c.name)
			}
			if err := tx.Commit(f); !errors.Is(err, ErrBadArgument) {
				t.Errorf("%s: commit of an unprepared transaction = %v, want ErrBadArgument", c.name, err)
			}
			mustUnlocked(t, rig.stores[:2])
		}
	})
}

// TestAppendReusesEncodeBuffer: Append encodes into a scratch buffer the
// store keeps, which is only sound because WriteLocal copies. Scribbling
// over the scratch after the call must not reach the log.
func TestAppendReusesEncodeBuffer(t *testing.T) {
	rig := newTwoPCRig(t, 1, nil, 0)
	st := rig.stores[0]
	rig.run(t, func(f *sim.Fiber) {
		for round, payload := range []string{"first-record", "second"} {
			if _, err := st.Append(f, []wal.Entry{{Off: 0, Data: []byte(payload)}}); err != nil {
				t.Errorf("append %d: %v", round, err)
				return
			}
			scratch := st.encBuf[:cap(st.encBuf)]
			for i := range scratch {
				scratch[i] = 0xEE
			}
			if n, err := st.ExecuteAll(f); err != nil || n != 1 {
				t.Errorf("execute %d = (%d, %v), want the one intact record", round, n, err)
				return
			}
			if got, err := st.ViewData(0, len(payload)); err != nil || string(got) != payload {
				t.Errorf("round %d: data = %q (%v), want %q", round, got, err, payload)
			}
		}
	})
}

// Group ops a participant of a one-entry transaction on a fresh log
// performs, in order: 1 lock gCAS, 2 record gWRITE, 3 tail gWRITE,
// 4 gMEMCPY, 5 head gWRITE, 6 unlock gCAS. subsetSteps names, for each
// parallel step, the op counts at which a participant can be frozen inside
// it (before its first op, and between any two). The coordinator cannot
// stop between a participant's head advance and its release any more, but a
// member fault can: stop 5 keeps that state in the sweep.
var subsetSteps = []struct {
	step      Step
	stops     []int
	committed bool // the commit record is durable by then
}{
	{StepLock, []int{0}, false},         // not locked
	{StepAppend, []int{1, 2}, false},    // locked only; record written / tail not
	{StepExecute, []int{3, 4, 5}, true}, // prepared; memcpy applied / head not advanced; head advanced / still locked
}

// TestTwoPCSubsetSweep enumerates the partial order the parallel phases
// open up. For span 4 and each parallel step, every non-empty proper
// subset of participants completes the step while the others are frozen at
// each group-op boundary inside it — several mid-append or mid-execute at
// once — and the coordinator dies as soon as the step has completed
// anywhere. Recovery by the commit-record rule must land all-or-nothing.
func TestTwoPCSubsetSweep(t *testing.T) {
	const span = 4
	cases := 0
	for _, ss := range subsetSteps {
		for _, stop := range ss.stops {
			for mask := 1; mask < 1<<span-1; mask++ {
				cases++
				label := fmt.Sprintf("%v stop-after-%d subset %04b", ss.step, stop, mask)
				rig, cl := loggedRig(t, span)
				rig.run(t, func(f *sim.Fiber) {
					tx, err := new(DistTxn).Begin(parts(rig.stores[:span], "subset"), cl, []int{0, 1, 2, 3})
					if err != nil {
						t.Error(err)
						return
					}
					for i := 0; i < span; i++ {
						if mask&(1<<i) == 0 {
							rig.stops[i].Budget = stop
						}
					}
					completed := 0
					tx.SetStepHook(func(s Step, participant int) error {
						if s != ss.step {
							return nil
						}
						if mask&(1<<participant) == 0 {
							t.Errorf("%s: frozen participant %d completed the step", label, participant)
						}
						completed++
						return ErrCoordinatorCrash
					})
					live := f.Kernel().LiveFibers()
					err = tx.Prepare(f)
					if err == nil {
						err = tx.Commit(f)
					}
					if !errors.Is(err, ErrCoordinatorCrash) {
						t.Errorf("%s: err = %v, want injected crash", label, err)
						return
					}
					if completed != 1 {
						t.Errorf("%s: hook fired %d times for the step after the crash, want 1", label, completed)
					}
					if got := f.Kernel().LiveFibers(); got != live {
						t.Errorf("%s: %d live fibers after the crash, %d before the transaction", label, got, live)
					}
					for _, g := range rig.stops {
						g.Budget = -1
					}
					recoverAndAudit(t, f, rig, cl, span, label, "subset", ss.committed, ss.committed)
				})
			}
		}
	}
	if want := 6 * 14; cases != want {
		t.Errorf("enumerated %d cases, want %d (6 stop points × 14 subsets)", cases, want)
	}
}

// TestCommitDrivesEveryParticipant: with one participant's group dead
// during phase two, Commit still finishes every other participant, names
// the dead one in ErrInDoubt, and a retry after the group heals completes.
func TestCommitDrivesEveryParticipant(t *testing.T) {
	const span, dead = 4, 1
	rig, cl := loggedRig(t, span)
	rig.run(t, func(f *sim.Fiber) {
		tx, err := new(DistTxn).Begin(parts(rig.stores[:span], "drive"), cl, []int{0, 1, 2, 3})
		if err != nil {
			t.Error(err)
			return
		}
		if err := tx.Prepare(f); err != nil {
			t.Errorf("prepare: %v", err)
			return
		}
		rig.stops[dead].Budget = 0
		err = tx.Commit(f)
		if !errors.Is(err, ErrInDoubt) || !errors.Is(err, protocoltest.ErrStopped) {
			t.Errorf("commit = %v, want ErrInDoubt wrapping the dead group's error", err)
			return
		}
		if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("participant %d execute", dead)) || strings.Count(msg, "participant") != 1 {
			t.Errorf("commit error %q must name participant %d and no other", msg, dead)
		}
		for i := 0; i < span; i++ {
			want := stDone
			if i == dead {
				want = stPrepared
			}
			if tx.state[i] != want {
				t.Errorf("participant %d state = %d, want %d", i, tx.state[i], want)
			}
		}
		if recs, err := cl.Records(); err != nil || len(recs) != 1 {
			t.Errorf("records = %v (%v), want the commit record kept while in doubt", recs, err)
		}
		rig.stops[dead].Budget = -1
		if err := tx.Commit(f); err != nil {
			t.Errorf("retried commit: %v", err)
			return
		}
		recoverAndAudit(t, f, rig, cl, span, "after retry", "drive", false, true)
	})
}

// span1LatencyNs is what a logged single-participant transaction (one
// 7-byte entry) costs on 3-replica chains when the commit log is clean,
// four store steps in sequence:
//
//	lock 8 804 + append (record, tail pointer behind it) 12 817
//	+ commit record 11 771 + execute (gMEMCPY, head pointer and the release
//	behind it) 11 622 = 45 014 ns
//
// The truncate is posted, not waited for. With the release a step of its
// own and the truncate on the path the same transaction cost 66 475 ns, and
// 88 285 ns before the steps were batched. A single participant spawns
// nothing, so the number moves only when a step's cost does.
const span1LatencyNs = 45014

// TestTxnLatencyBySpan pins the cost model: the first span-1 transaction is
// the sum above; issued right behind a transaction, one waits out what is
// left of that transaction's truncate after its own lock round (≈ 3.2 µs)
// and then costs the same four rounds at any span — span 4 at most 1.1 ×
// span 1. No fiber is started for span 1 or left behind by span 4.
func TestTxnLatencyBySpan(t *testing.T) {
	const maxSpan = 4
	rig := newTwoPCRigN(t, maxSpan+1, 3, nil, 0)
	cl, err := NewCommitLog(rig.stores[maxSpan], maxSpan)
	if err != nil {
		t.Fatal(err)
	}
	rig.run(t, func(f *sim.Fiber) {
		k := f.Kernel()
		var latency []sim.Duration
		spans := []int{1, 1, 2, 4}
		for _, span := range spans {
			tx, err := new(DistTxn).Begin(parts(rig.stores[:span], "lat"), cl, []int{0, 1, 2, 3}[:span])
			if err != nil {
				t.Error(err)
				return
			}
			live, pooled, starts := k.LiveFibers(), k.PooledFibers(), k.FiberStarts()
			start := f.Now()
			if err := tx.Prepare(f); err != nil {
				t.Errorf("span %d prepare: %v", span, err)
				return
			}
			if err := tx.Commit(f); err != nil {
				t.Errorf("span %d commit: %v", span, err)
				return
			}
			latency = append(latency, f.Now().Sub(start))
			if got := k.LiveFibers(); got != live {
				t.Errorf("span %d: %d live fibers after commit, %d before", span, got, live)
			}
			if span == 1 && (k.FiberStarts() != starts || k.PooledFibers() != pooled) {
				t.Errorf("span 1 touched the fiber pool: starts %d→%d, pooled %d→%d",
					starts, k.FiberStarts(), pooled, k.PooledFibers())
			}
			if span > 1 && k.PooledFibers() != span-1 {
				t.Errorf("span %d left %d pooled fibers, want its %d children parked for reuse", span, k.PooledFibers(), span-1)
			}
		}
		t.Logf("logged transaction latency, spans %v back to back: %v", spans, latency)
		if got := int64(latency[0]); got != span1LatencyNs {
			t.Errorf("first span-1 latency = %d ns, want %d ns", got, span1LatencyNs)
		}
		settle := latency[1] - latency[0]
		if settle <= 0 || settle > 3500*sim.Nanosecond {
			t.Errorf("a span-1 transaction behind another costs %v more than the first, want the ≈ 3.2 µs left of the truncate", settle)
		}
		if latency[3]*10 > latency[1]*11 {
			t.Errorf("span-4 latency %v exceeds 1.1 × span-1 %v, both issued behind a transaction", latency[3], latency[1])
		}
	})
}
