package experiments

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestOverlappedVsSerialIdentical is the tentpole's golden test: the
// two-level scheduler must overlap experiments without moving a single
// report byte or attributed counter. RunAll over every experiment at
// -procs 1 (serial experiments, serial trials), -procs 2 (overlapped,
// minimal budget), and -procs 0 (overlapped, GOMAXPROCS budget) must
// agree on every report and every deterministic StatSink field.
func TestOverlappedVsSerialIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment three times")
	}
	prev := Parallelism()
	defer SetParallelism(prev)
	const seed = 1
	ids := Order()
	modes := []int{1, 2, 0}
	if raceEnabled {
		// The race detector's ~10× slowdown would push the full matrix
		// past CI's test timeout on small hosts; exercise the scheduler's
		// concurrency on the microbenchmark subset and two modes, and
		// leave full-matrix byte-identity to the non-race run.
		ids = []string{"fig8a", "fig8b", "table2", "abl-flush", "abl-depth"}
		modes = []int{1, 0}
	}
	runs := make(map[int][]Result)
	for _, p := range modes {
		SetParallelism(p)
		res, err := RunAll(ids, seed, Quick)
		if err != nil {
			t.Fatalf("procs=%d: %v", p, err)
		}
		if len(res) != len(ids) {
			t.Fatalf("procs=%d: %d results, want %d", p, len(res), len(ids))
		}
		runs[p] = res
	}

	serial := runs[1]
	for _, p := range modes[1:] {
		for i, r := range runs[p] {
			if r.ID != serial[i].ID {
				t.Fatalf("procs=%d: result %d is %s, want %s", p, i, r.ID, serial[i].ID)
			}
			if got, want := r.Report.String(), serial[i].Report.String(); got != want {
				t.Errorf("procs=%d %s: report differs from serial run:\n--- overlapped ---\n%s\n--- serial ---\n%s",
					p, r.ID, got, want)
			}
			if got, want := r.Stats, serial[i].Stats; got != want {
				t.Errorf("procs=%d %s: attributed counters differ from serial run:\noverlapped: %+v\nserial:     %+v",
					p, r.ID, got, want)
			}
		}
	}
	if gmp := runtime.GOMAXPROCS(0); gmp > 1 {
		t.Logf("overlap exercised with GOMAXPROCS=%d", gmp)
	}
}

// TestRunAllSharesOneBudget pins the property the shared semaphore exists
// for: however many experiments are open, in-flight trials never exceed
// the budget. Three runs share one budget of 2, as RunAll's overlapped
// experiments do, while each would run 4 workers on its own; at most 2 of
// their trials may be in flight at once. Then RunAll over three
// multi-trial experiments at budget 2 must return results in ids order.
func TestRunAllSharesOneBudget(t *testing.T) {
	prev := SetParallelism(4)
	defer SetParallelism(prev)
	sem := make(chan struct{}, 2)
	var mu sync.Mutex
	inFlight, peak := 0, 0
	var wg sync.WaitGroup
	for range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := trials(&runCtx{sem: sem}, 8, func(int, *trialArena) (struct{}, error) {
				mu.Lock()
				inFlight++
				peak = max(peak, inFlight)
				mu.Unlock()
				time.Sleep(200 * time.Microsecond)
				mu.Lock()
				inFlight--
				mu.Unlock()
				return struct{}{}, nil
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if peak > 2 {
		t.Fatalf("%d trials in flight under a budget of 2", peak)
	}

	SetParallelism(2)
	ids := []string{"fig8b", "table2", "abl-depth"}
	res, err := RunAll(ids, 1, Quick)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.ID != ids[i] {
			t.Errorf("result %d is %s, want %s (ids order)", i, r.ID, ids[i])
		}
	}
}

// TestRunAllUnknownID checks that a typo fails fast, before any
// experiment starts.
func TestRunAllUnknownID(t *testing.T) {
	if _, err := RunAll([]string{"table3", "fig99"}, 1, Quick); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestRunAllSingleSerial checks that a one-experiment list takes the
// serial path at any budget and still fills in stats.
func TestRunAllSingleSerial(t *testing.T) {
	prev := SetParallelism(4)
	defer SetParallelism(prev)
	res, err := RunAll([]string{"abl-flush"}, 1, Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].ID != "abl-flush" {
		t.Fatalf("results = %+v", res)
	}
	if res[0].Stats.SimEvents == 0 || res[0].Stats.CQEs == 0 {
		t.Fatalf("stats not attributed: %+v", res[0].Stats)
	}
}
