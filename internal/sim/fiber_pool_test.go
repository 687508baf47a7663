package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// numGoroutinesSettled samples runtime.NumGoroutine until it stops
// shrinking, giving retired runners a moment to exit.
func numGoroutinesSettled() int {
	prev := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(time.Millisecond)
		n := runtime.NumGoroutine()
		if n >= prev {
			return n
		}
		prev = n
	}
	return prev
}

// calledFrom reports whether a function whose name ends in name is on the
// calling goroutine's stack.
func calledFrom(name string) bool {
	pc := make([]uintptr, 64)
	frames := runtime.CallersFrames(pc[:runtime.Callers(1, pc)])
	for {
		fr, more := frames.Next()
		if strings.HasSuffix(fr.Function, name) {
			return true
		}
		if !more {
			return false
		}
	}
}

// TestFiberPoolReusesRunners: sequential fibers inside one Run share a
// single runner goroutine — the pool-hit path the datapath lives on.
func TestFiberPoolReusesRunners(t *testing.T) {
	k := NewKernel(1)
	const n = 1000
	ran := 0
	var spawn func(i int)
	spawn = func(i int) {
		if i == n {
			return
		}
		k.Spawn(fmt.Sprintf("f%d", i), func(f *Fiber) {
			ran++
			f.Sleep(Microsecond)
			spawn(i + 1) // next fiber starts only after this one exited
		})
	}
	spawn(0)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != n {
		t.Fatalf("ran %d of %d fibers", ran, n)
	}
	if k.LiveFibers() != 0 {
		t.Fatalf("LiveFibers = %d, want 0", k.LiveFibers())
	}
	// Spawn posts the body at now+0, so consecutive fibers overlap only at
	// the dispatch boundary; a handful of runners must cover all of them.
	if s := k.FiberStarts(); s > 2 {
		t.Fatalf("FiberStarts = %d for %d sequential fibers, want ≤2", s, n)
	}
}

// TestFiberPoolNoGoroutineLeak: thousands of spawn/exits across several
// reused kernels leave no runner goroutines behind once each top-level Run
// has returned — including a Run cut short by StopRun while fibers are
// parked, once a second Run has let them finish.
func TestFiberPoolNoGoroutineLeak(t *testing.T) {
	base := numGoroutinesSettled()
	for trial := 0; trial < 20; trial++ {
		k := NewKernel(uint64(trial))
		for i := 0; i < 50; i++ {
			i := i
			k.Spawn("worker", func(f *Fiber) {
				f.Sleep(Duration(i) * Microsecond)
				sig := NewSignal()
				k.After(Microsecond, func() { sig.Fire(nil) })
				_ = f.Await(sig)
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		// Re-enter the same kernel: the pool was drained, so this must
		// transparently start fresh runners and drain them again.
		k.Spawn("again", func(f *Fiber) { f.Sleep(Microsecond) })
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if k.LiveFibers() != 0 {
			t.Fatalf("trial %d: LiveFibers = %d", trial, k.LiveFibers())
		}
	}

	// StopRun with parked fibers: the event loop runs on the goroutine that
	// called Run (an event callback finds this test on its stack), Run
	// returns ErrStopped there, the parked fibers keep their runners, and a
	// second Run resumes them.
	k := NewKernel(99)
	const parked = 10
	release := NewSignal()
	resumed := 0
	for i := 0; i < parked; i++ {
		k.Spawn("parked", func(f *Fiber) {
			_ = f.Await(release)
			resumed++
		})
	}
	onCaller := false
	k.After(Microsecond, func() {
		onCaller = calledFrom("TestFiberPoolNoGoroutineLeak")
		k.StopRun()
	})
	k.After(2*Microsecond, func() { release.Fire(nil) })
	if err := k.Run(); !errors.Is(err, ErrStopped) {
		t.Fatalf("stopped Run returned %v, want ErrStopped", err)
	}
	if !onCaller {
		t.Fatal("event loop ran on a goroutine other than Run's caller")
	}
	if k.LiveFibers() != parked || resumed != 0 {
		t.Fatalf("after StopRun: LiveFibers = %d, resumed = %d; want %d parked", k.LiveFibers(), resumed, parked)
	}
	if got := numGoroutinesSettled(); got < base+parked {
		t.Fatalf("after StopRun: %d goroutines, want ≥ %d (parked fibers keep their runners)", got, base+parked)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.LiveFibers() != 0 || resumed != parked {
		t.Fatalf("second Run: LiveFibers = %d, resumed = %d of %d", k.LiveFibers(), resumed, parked)
	}

	if got := numGoroutinesSettled(); got > base+2 {
		t.Fatalf("goroutines grew from %d to %d — leaked runners", base, got)
	}
}

// traceRun executes a mixed fiber workload — run-to-completion fibers,
// sleepers, signal waiters, a mutex convoy, and nested spawns — and returns
// the virtual-time trace it produced.
func traceRun(t *testing.T, seed uint64) []string {
	t.Helper()
	k := NewKernel(seed)
	var trace []string
	log := func(f string, a ...any) {
		trace = append(trace, fmt.Sprintf("%d: ", k.Now())+fmt.Sprintf(f, a...))
	}
	var mu Mutex
	done := NewSignal()
	waiting := 0
	for i := 0; i < 40; i++ {
		i := i
		switch i % 4 {
		case 0: // run-to-completion: never blocks
			k.Spawn(fmt.Sprintf("inline-%d", i), func(f *Fiber) {
				log("inline-%d ran", i)
			})
		case 1: // sleeper: blocks once
			k.Spawn(fmt.Sprintf("sleeper-%d", i), func(f *Fiber) {
				log("sleeper-%d start", i)
				f.Sleep(Duration(10 + i))
				log("sleeper-%d woke", i)
			})
		case 2: // convoy: contends a shared mutex, FIFO handoff
			k.Spawn(fmt.Sprintf("lock-%d", i), func(f *Fiber) {
				mu.Lock(f)
				log("lock-%d acquired", i)
				f.Sleep(3)
				mu.Unlock()
			})
		case 3: // waiter: parks on a shared signal; the last one fires it
			k.Spawn(fmt.Sprintf("wait-%d", i), func(f *Fiber) {
				waiting++
				if waiting == 10 {
					// Nested spawn from fiber context: starts at this instant.
					f.Kernel().Spawn("firer", func(g *Fiber) {
						g.Sleep(100)
						log("firer fires")
						done.Fire(nil)
					})
				}
				if err := f.Await(done); err != nil {
					t.Errorf("wait-%d: %v", i, err)
				}
				log("wait-%d released", i)
			})
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if lf := k.LiveFibers(); lf != 0 {
		t.Fatalf("%d fibers still live after Run", lf)
	}
	return trace
}

// TestFiberTraceDeterministic: the same workload at the same seed produces
// a byte-identical virtual-time trace on every run. Which runner goroutine
// executes a body, and whether it is fresh or pooled, never shows.
func TestFiberTraceDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		a := traceRun(t, seed)
		b := traceRun(t, seed)
		if len(a) == 0 {
			t.Fatal("empty trace")
		}
		if len(a) != len(b) {
			t.Fatalf("seed %d: trace lengths %d and %d", seed, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: traces diverge at %d:\n  first:  %s\n  second: %s", seed, i, a[i], b[i])
			}
		}
	}
}

// TestFiberPanicPropagates: a panicking body surfaces through Run with the
// fiber's name and stack, and the dead runner is not pooled.
func TestFiberPanicPropagates(t *testing.T) {
	k := NewKernel(1)
	k.Spawn("doomed", func(f *Fiber) {
		f.Sleep(Microsecond)
		panic("boom")
	})
	func() {
		defer func() {
			p := recover()
			if p == nil {
				t.Fatal("Run did not panic")
			}
			msg := fmt.Sprint(p)
			if !strings.Contains(msg, "doomed") || !strings.Contains(msg, "boom") {
				t.Fatalf("panic message %q missing fiber name or value", msg)
			}
		}()
		_ = k.Run()
	}()
	// The kernel must remain usable: new spawns get a fresh runner.
	ok := false
	k.Spawn("survivor", func(f *Fiber) { f.Sleep(Microsecond); ok = true })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("fiber after panic did not run")
	}
}

// TestMutexConvoyFIFO: a long convoy hands the lock over strictly in
// arrival order, one holder per Unlock.
func TestMutexConvoyFIFO(t *testing.T) {
	k := NewKernel(1)
	var mu Mutex
	const n = 2000
	var order []int
	for i := 0; i < n; i++ {
		i := i
		k.Spawn(fmt.Sprintf("w%d", i), func(f *Fiber) {
			mu.Lock(f)
			order = append(order, i)
			f.Sleep(Microsecond)
			mu.Unlock()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != n {
		t.Fatalf("got %d completions, want %d", len(order), n)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (not FIFO)", i, v, i)
		}
	}
}

// BenchmarkFiberSpawn measures the steady-state cost of spawning a fiber
// that sleeps once and exits, all within one Run — the shape of a datapath
// issuing operations back-to-back. goroutine-starts/op must be ~0: every
// spawn after the first reuses a pooled runner. (The pool drains at
// top-level Run exit, so reuse across Run calls is intentionally not
// benchmarked — that path exists for leak-freedom, not speed.)
func BenchmarkFiberSpawn(b *testing.B) {
	k := NewKernel(1)
	n := 0
	var next func()
	next = func() {
		if n == b.N {
			return
		}
		n++
		k.Spawn("bench", func(f *Fiber) {
			f.Sleep(Microsecond)
			next() // spawned only after the previous fiber exited
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	next()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	starts := k.FiberStarts()
	// Sequential fibers overlap only at the dispatch boundary; a constant
	// few runners must serve all b.N spawns.
	b.ReportMetric(float64(starts)/float64(b.N), "goroutine-starts/op")
	if b.N >= 100 && starts > 2 {
		b.Fatalf("FiberStarts = %d over %d sequential spawns; pool not reusing", starts, b.N)
	}
}

// BenchmarkFiberSpawnParallel spawns waves of 100 concurrent fibers inside
// one Run: the pool must plateau at the wave's peak concurrency, not grow
// with the number of waves.
func BenchmarkFiberSpawnParallel(b *testing.B) {
	k := NewKernel(1)
	const wave = 100
	waves := (b.N + wave - 1) / wave
	launched := 0
	var launch func()
	launch = func() {
		if launched == waves {
			return
		}
		launched++
		remaining := wave
		for j := 0; j < wave; j++ {
			k.Spawn("bench", func(f *Fiber) {
				f.Sleep(Microsecond)
				remaining--
				if remaining == 0 {
					launch() // next wave starts after this one fully exits
				}
			})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	launch()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(k.FiberStarts())/float64(waves*wave), "goroutine-starts/op")
	if waves >= 2 && k.FiberStarts() > wave+1 {
		b.Fatalf("FiberStarts = %d for waves of %d; pool growing with wave count", k.FiberStarts(), wave)
	}
}

// BenchmarkMutexConvoy exercises Unlock handoff with a deep waiter queue;
// the ring-backed queue keeps each handoff O(1).
func BenchmarkMutexConvoy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := NewKernel(1)
		var mu Mutex
		for j := 0; j < 500; j++ {
			k.Spawn("w", func(f *Fiber) {
				mu.Lock(f)
				mu.Unlock()
			})
		}
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
