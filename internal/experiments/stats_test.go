package experiments

import (
	"sync"
	"testing"

	"hyperloop/internal/report"
)

// TestStatAttributionUnderOverlap runs two experiments alone, then again
// concurrently over one shared trial budget, and checks each experiment's
// StatSink reads the same both ways: sim events, CQEs, messages and wire
// bytes all belong to exactly one experiment, never to whichever run
// happened to share the machine.
func TestStatAttributionUnderOverlap(t *testing.T) {
	prev := SetParallelism(2)
	defer SetParallelism(prev)
	const seed = 42
	ids := []string{"fig8a", "abl-depth"}

	alone := make(map[string]StatSink)
	for _, id := range ids {
		_, s, err := RunStats(id, seed, Quick)
		if err != nil {
			t.Fatalf("%s alone: %v", id, err)
		}
		if s.SimEvents == 0 || s.CQEs == 0 || s.Messages == 0 || s.WireBytes == 0 {
			t.Fatalf("%s alone: sink not populated: %+v", id, s)
		}
		alone[id] = s
	}

	overlapped, err := RunAll(ids, seed, Quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range overlapped {
		if got, want := r.Stats, alone[r.ID]; got != want {
			t.Errorf("%s: overlapped sink differs from solo run:\noverlapped: %+v\nsolo:       %+v", r.ID, got, want)
		}
	}
}

// TestStatSinkAdd checks the trial-to-sink accumulation arithmetic.
func TestStatSinkAdd(t *testing.T) {
	var s StatSink
	s.add(StatSink{Counters: report.Counters{SimEvents: 3, CQEs: 2, Drops: 1}, LiveFibers: 1})
	s.add(StatSink{Counters: report.Counters{SimEvents: 4, Messages: 5, WireBytes: 640, Dups: 2}, ParkedRunners: 3})
	want := StatSink{Counters: report.Counters{SimEvents: 7, CQEs: 2, Messages: 5, WireBytes: 640,
		Drops: 1, Dups: 2}, LiveFibers: 1, ParkedRunners: 3}
	if s != want {
		t.Fatalf("sink = %+v, want %+v", s, want)
	}
}

// TestRunCtxNilSafe checks the nil receiver contract: direct calls like
// experiments_test helpers run trials with no runCtx at all.
func TestRunCtxNilSafe(t *testing.T) {
	var rc *runCtx
	rc.acquire()
	rc.release()
	rc.addTrial(StatSink{Counters: report.Counters{SimEvents: 1}})
	if s := rc.stats(); s != (StatSink{}) {
		t.Fatalf("nil runCtx stats = %+v, want zero", s)
	}
}

// TestRunCtxConcurrentAddTrial checks sink accumulation is safe when a
// trial pool reports from many workers at once.
func TestRunCtxConcurrentAddTrial(t *testing.T) {
	rc := &runCtx{}
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rc.addTrial(StatSink{Counters: report.Counters{SimEvents: 1, CQEs: 2}})
		}()
	}
	wg.Wait()
	if s := rc.stats(); s.SimEvents != 32 || s.CQEs != 64 {
		t.Fatalf("stats = %+v, want 32 trials of {1,2}", s)
	}
}
