package experiments

import (
	"fmt"
	"sync"
	"time"

	"hyperloop/internal/report"
)

// Result is one experiment's outcome from RunAll: its report plus the
// counters attributed to exactly that experiment's trials. Wall is the
// experiment's own start-to-finish wall time; under the overlapped
// scheduler experiments share the machine, so Wall measures elapsed time,
// not exclusive CPU time.
type Result struct {
	ID     string
	Report *report.Report
	Stats  StatSink
	Wall   time.Duration
}

// RunAll executes the named experiments under the two-level scheduler.
//
// Level one dispatches experiments; level two is the per-experiment trial
// worker pool (trials). Both levels share one trial budget: Parallelism()
// slots process-wide, so -procs bounds in-flight trials no matter how many
// experiments are open at once. With a budget of one the dispatcher
// degrades to the classic serial schedule — experiments strictly one after
// another, in ids order — which is also the mode the committed baseline is
// generated in. Otherwise every experiment launches at once, in ids order,
// and a slot freed by a finishing trial goes to whichever trial is waiting.
//
// Overlap is safe precisely because stat attribution is local: every
// trial's kernel and fabric counters land in the owning experiment's
// StatSink at endTrial, so each Result reads byte-identical to a serial
// run (TestOverlappedVsSerialIdentical). Only wall time changes: trials
// from later experiments fill the slots that an almost-finished
// experiment's stragglers would otherwise leave idle.
//
// On failure RunAll returns the error of the earliest experiment in ids
// order, mirroring trials' lowest-index rule, so error reporting is
// deterministic under any scheduling.
func RunAll(ids []string, seed uint64, scale Scale) ([]Result, error) {
	// Validate up front so a typo fails before any experiment starts.
	for _, id := range ids {
		if _, ok := lookup(id); !ok {
			return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, Names())
		}
	}
	results := make([]Result, len(ids))
	budget := Parallelism()
	if budget <= 1 || len(ids) <= 1 {
		for i, id := range ids {
			rc := &runCtx{}
			start := time.Now()
			rep, err := runWith(rc, id, seed, scale)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", id, err)
			}
			results[i] = Result{ID: id, Report: rep, Stats: rc.stats(), Wall: time.Since(start)}
		}
		return results, nil
	}

	sem := make(chan struct{}, budget)
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	wg.Add(len(ids))
	for i := range ids {
		go func(i int) {
			defer wg.Done()
			rc := &runCtx{sem: sem}
			start := time.Now()
			rep, err := runWith(rc, ids[i], seed, scale)
			errs[i] = err
			results[i] = Result{ID: ids[i], Report: rep, Stats: rc.stats(), Wall: time.Since(start)}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", ids[i], err)
		}
	}
	return results, nil
}
