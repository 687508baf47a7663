package experiments

import (
	"runtime"
	"testing"
)

// deterministicStats strips the scheduling-dependent fields of a sink —
// the pools' fresh/reused splits and the zeroing actually performed —
// leaving only the counters that must be byte-identical at any -procs
// setting and under any experiment overlap.
func deterministicStats(s StatSink) StatSink {
	s.DeviceFresh, s.DeviceReused, s.DeviceBytesZeroed = 0, 0, 0
	s.KernelFresh, s.KernelReused = 0, 0
	s.FabricReused = 0
	return s
}

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
			if got, want := deterministicStats(r.Stats), deterministicStats(serial[i].Stats); got != want {
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
// for: however many experiments are open, in-flight trials — and so the
// arenas ever checked out at once — never exceed the budget. Starting from
// an empty arena pool, three overlapped multi-trial experiments at budget
// 2 may create at most 2 arenas, and results come back in ids order.
func TestRunAllSharesOneBudget(t *testing.T) {
	prev := SetParallelism(2)
	defer SetParallelism(prev)
	arenas.mu.Lock()
	arenas.free, arenas.all = nil, nil
	arenas.mu.Unlock()

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
	arenas.mu.Lock()
	defer arenas.mu.Unlock()
	if n := len(arenas.all); n < 1 || n > 2 {
		t.Fatalf("%d arenas created under a budget of 2", n)
	}
	if len(arenas.free) != len(arenas.all) {
		t.Fatalf("%d of %d arenas still checked out after RunAll", len(arenas.all)-len(arenas.free), len(arenas.all))
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
