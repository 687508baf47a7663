package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// procs holds the configured trial parallelism; 0 means GOMAXPROCS.
var procs atomic.Int32

// SetParallelism sets how many trials may run concurrently (0 restores the
// default of GOMAXPROCS) and returns the previous setting. The budget is
// shared across experiments: when RunAll overlaps experiments, the total
// number of in-flight trials process-wide stays at this bound. Each trial
// owns a private sim.Kernel, so concurrency never changes virtual-time
// results: reports are byte-identical at any parallelism level.
func SetParallelism(n int) int {
	return int(procs.Swap(int32(n)))
}

// Parallelism returns the effective number of concurrent trial workers.
func Parallelism() int {
	if p := procs.Load(); p > 0 {
		return int(p)
	}
	return runtime.GOMAXPROCS(0)
}

// trials runs trial(0..n-1) for the experiment run rc and returns their
// results in index order; it is how every experiment and scenario runs a
// trial. Trials run on up to Parallelism() workers, each holding one slot
// of rc's shared cross-experiment budget (when rc carries one) for the
// trial's duration. Every trial gets a new arena: it builds its racks'
// kernels and fabrics through it, fresh, and when it ends the arena
// attributes their counters to rc's sink. With one
// worker the trials run serially and stop at the first failure. When
// several trials fail, the error of the lowest index is returned — the
// one the serial loop would have hit first — so error reporting is
// deterministic under any scheduling.
func trials[T any](rc *runCtx, n int, trial func(i int, ar *trialArena) (T, error)) ([]T, error) {
	out := make([]T, n)
	run := func(i int) error {
		rc.acquire()
		defer rc.release()
		ar := &trialArena{}
		defer ar.endTrial(rc) // a failed trial is still attributed
		var err error
		out[i], err = trial(i, ar)
		return err
	}
	workers := min(Parallelism(), n)
	if workers <= 1 {
		for i := range n {
			if err := run(i); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = run(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
