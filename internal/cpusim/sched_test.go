package cpusim

import (
	"testing"

	"hyperloop/internal/sim"
)

func mustNew(t *testing.T, k *sim.Kernel, cfg Config) *Scheduler {
	t.Helper()
	s, err := New(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigValidation(t *testing.T) {
	k := sim.NewKernel(1)
	if _, err := New(k, Config{Cores: 0}); err == nil {
		t.Fatal("zero cores accepted")
	}
	if _, err := New(k, Config{Cores: 1}); err == nil {
		t.Fatal("zero granularity accepted")
	}
}

func TestIdleMachineRunsWorkQuickly(t *testing.T) {
	k := sim.NewKernel(1)
	s := mustNew(t, k, DefaultConfig(4))
	p := s.NewProc("worker")
	var doneAt sim.Time
	p.Submit(10*sim.Microsecond, func() { doneAt = k.Now() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// ctx switch (5µs) + work (10µs) + dispatch overhead.
	if doneAt < sim.Time(10*sim.Microsecond) || doneAt > sim.Time(30*sim.Microsecond) {
		t.Fatalf("idle-machine completion at %v, want ≈15µs", doneAt)
	}
	if p.TotalCPU() != 10*sim.Microsecond {
		t.Fatalf("totalCPU = %v", p.TotalCPU())
	}
}

func TestWorkOrderWithinProc(t *testing.T) {
	k := sim.NewKernel(1)
	s := mustNew(t, k, DefaultConfig(1))
	p := s.NewProc("w")
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		p.Submit(sim.Microsecond, func() { order = append(order, i) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestContextSwitchesCounted(t *testing.T) {
	k := sim.NewKernel(1)
	s := mustNew(t, k, DefaultConfig(1))
	a, b := s.NewProc("a"), s.NewProc("b")
	for i := 0; i < 3; i++ {
		a.Submit(100*sim.Microsecond, nil)
		b.Submit(100*sim.Microsecond, nil)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if s.ContextSwitches() < 2 {
		t.Fatalf("ctx switches = %d, want ≥2", s.ContextSwitches())
	}
}

func TestLoadInflatesLatency(t *testing.T) {
	// The paper's Fig. 2 mechanism: same work, more co-located load →
	// higher completion latency and more context switches.
	measure := func(hogs int) (sim.Duration, int64) {
		k := sim.NewKernel(7)
		s := mustNew(t, k, DefaultConfig(2))
		s.AddHogs(hogs)
		p := s.NewProc("replica")
		var total sim.Duration
		const ops = 50
		done := 0
		var issue func()
		issue = func() {
			start := k.Now()
			p.Submit(5*sim.Microsecond, func() {
				total += k.Now().Sub(start)
				done++
				if done < ops {
					// Think time between ops.
					k.After(200*sim.Microsecond, issue)
				}
			})
		}
		issue()
		if err := k.RunUntil(sim.Time(2 * sim.Second)); err != nil {
			t.Fatal(err)
		}
		if done != ops {
			t.Fatalf("hogs=%d: completed %d/%d ops", hogs, done, ops)
		}
		return total / ops, s.ContextSwitches()
	}
	idleLat, _ := measure(0)
	loadLat, loadCtx := measure(20)
	if loadLat < 2*idleLat {
		t.Fatalf("load did not inflate latency: idle=%v loaded=%v", idleLat, loadLat)
	}
	if loadCtx == 0 {
		t.Fatal("no context switches under load")
	}
}

func TestMoreCoresReduceLatency(t *testing.T) {
	measure := func(cores int) sim.Duration {
		k := sim.NewKernel(11)
		s := mustNew(t, k, DefaultConfig(cores))
		s.AddNoise(32, 300*sim.Microsecond, 2*sim.Millisecond)
		p := s.NewProc("replica")
		var total sim.Duration
		const ops = 40
		done := 0
		var issue func()
		issue = func() {
			start := k.Now()
			p.Submit(5*sim.Microsecond, func() {
				total += k.Now().Sub(start)
				done++
				if done < ops {
					k.After(500*sim.Microsecond, issue)
				}
			})
		}
		issue()
		if err := k.RunUntil(sim.Time(3 * sim.Second)); err != nil {
			t.Fatal(err)
		}
		if done != ops {
			t.Fatalf("cores=%d: completed %d/%d", cores, done, ops)
		}
		return total / ops
	}
	few := measure(2)
	many := measure(16)
	if many >= few {
		t.Fatalf("more cores did not help: 2 cores=%v 16 cores=%v", few, many)
	}
}

func TestPinnedPollerHandlesImmediately(t *testing.T) {
	k := sim.NewKernel(1)
	s := mustNew(t, k, DefaultConfig(2))
	s.AddHogs(50) // heavy load must not affect the pinned poller
	p := s.NewProc("poller")
	p.Pin()
	if !p.Pinned() {
		t.Fatal("pin flag lost")
	}
	var doneAt sim.Time
	issueAt := sim.Time(10 * sim.Millisecond)
	k.At(issueAt, func() {
		p.Submit(2*sim.Microsecond, func() { doneAt = k.Now() })
	})
	if err := k.RunUntil(sim.Time(20 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	lat := doneAt.Sub(issueAt)
	if lat > 10*sim.Microsecond {
		t.Fatalf("pinned poller latency %v, want ≤10µs", lat)
	}
}

func TestHogsSaturateUtilization(t *testing.T) {
	k := sim.NewKernel(1)
	s := mustNew(t, k, DefaultConfig(4))
	s.AddHogs(8)
	if err := k.RunUntil(sim.Time(100 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if u := s.Utilization(); u < 0.95 {
		t.Fatalf("utilization = %.2f, want ≈1.0", u)
	}
}

// TestSetRefillNilEndsRefill: a poller whose refill is removed runs the
// chunk it has drawn and sleeps; submitted work still wakes it.
func TestSetRefillNilEndsRefill(t *testing.T) {
	const chunk = 50 * sim.Microsecond
	k := sim.NewKernel(1)
	s := mustNew(t, k, DefaultConfig(2))
	p := s.NewProc("poller")
	p.SetRefill(func() sim.Duration { return chunk })
	if err := k.RunUntil(sim.Time(5 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	polled := p.TotalCPU()
	if polled < 4*sim.Millisecond {
		t.Fatalf("poller ran %v of the first 5ms, want nearly all of it", polled)
	}
	p.SetRefill(nil)
	if err := k.RunUntil(sim.Time(10 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if extra := p.TotalCPU() - polled; extra > chunk {
		t.Fatalf("poller ran %v after SetRefill(nil), want at most its drawn %v chunk", extra, chunk)
	}
	ended := p.TotalCPU()
	p.Submit(10*sim.Microsecond, nil)
	if err := k.RunUntil(sim.Time(15 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if got := p.TotalCPU() - ended; got != 10*sim.Microsecond {
		t.Fatalf("submitted 10µs after the refill ended, ran %v", got)
	}
}

func TestIdleUtilizationNearZero(t *testing.T) {
	k := sim.NewKernel(1)
	s := mustNew(t, k, DefaultConfig(4))
	p := s.NewProc("w")
	p.Submit(sim.Microsecond, nil)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.At(sim.Time(sim.Second), func() {})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if u := s.Utilization(); u > 0.01 {
		t.Fatalf("idle utilization = %.4f", u)
	}
}

func TestFairnessBetweenCompetingProcs(t *testing.T) {
	k := sim.NewKernel(1)
	s := mustNew(t, k, DefaultConfig(1))
	a, b := s.NewProc("a"), s.NewProc("b")
	a.SetRefill(func() sim.Duration { return 500 * sim.Microsecond })
	b.SetRefill(func() sim.Duration { return 500 * sim.Microsecond })
	if err := k.RunUntil(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	ra, rb := float64(a.TotalCPU()), float64(b.TotalCPU())
	if ra == 0 || rb == 0 {
		t.Fatal("a competitor starved")
	}
	ratio := ra / rb
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("unfair split: a=%v b=%v", a.TotalCPU(), b.TotalCPU())
	}
}

func TestSleeperNotStarvedByHogs(t *testing.T) {
	// A woken interactive proc must run well before a full round of hogs.
	k := sim.NewKernel(3)
	s := mustNew(t, k, DefaultConfig(1))
	s.AddHogs(10)
	p := s.NewProc("interactive")
	var worst sim.Duration
	done := 0
	var issue func()
	issue = func() {
		start := k.Now()
		p.Submit(sim.Microsecond, func() {
			if d := k.Now().Sub(start); d > worst {
				worst = d
			}
			done++
			if done < 20 {
				k.After(5*sim.Millisecond, issue)
			}
		})
	}
	k.After(50*sim.Millisecond, issue)
	if err := k.RunUntil(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	if done != 20 {
		t.Fatalf("completed %d/20", done)
	}
	// 10 hogs × min granularity each would be 7.5ms; wakeup placement
	// must beat a full round robin.
	if worst > 5*sim.Millisecond {
		t.Fatalf("worst wakeup latency %v, want <5ms", worst)
	}
}

func TestMeanWaitTracked(t *testing.T) {
	k := sim.NewKernel(1)
	s := mustNew(t, k, DefaultConfig(1))
	s.AddHogs(4)
	p := s.NewProc("w")
	p.Submit(sim.Microsecond, nil)
	if err := k.RunUntil(sim.Time(100 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if p.MeanWait() <= 0 {
		t.Fatal("wait time not tracked under load")
	}
}

func TestNoiseDeterministicAcrossRuns(t *testing.T) {
	run := func() (int64, sim.Duration) {
		k := sim.NewKernel(99)
		s := mustNew(t, k, DefaultConfig(4))
		s.AddNoise(20, 200*sim.Microsecond, sim.Millisecond)
		p := s.NewProc("x")
		var total sim.Duration
		for i := 0; i < 10; i++ {
			at := sim.Time(i) * sim.Time(10*sim.Millisecond)
			k.At(at, func() {
				start := k.Now()
				p.Submit(3*sim.Microsecond, func() { total += k.Now().Sub(start) })
			})
		}
		if err := k.RunUntil(sim.Time(200 * sim.Millisecond)); err != nil {
			t.Fatal(err)
		}
		return s.ContextSwitches(), total
	}
	c1, t1 := run()
	c2, t2 := run()
	if c1 != c2 || t1 != t2 {
		t.Fatalf("nondeterministic: (%d,%v) vs (%d,%v)", c1, t1, c2, t2)
	}
}

// refDispatch is dispatch as it was before the idle-core bitmask: visit
// every core in index order and start the run-queue head on each free one.
// Before each start it also recounts, by walking the cores, what the
// scheduler now keeps incrementally.
func refDispatch(t *testing.T, s *Scheduler) {
	for _, c := range s.cores {
		if c.cur != nil || len(s.runq) == 0 {
			continue
		}
		running := 0
		for _, o := range s.cores {
			idle := s.idle[o.id>>6]&(1<<(o.id&63)) != 0
			if idle != (o.cur == nil) {
				t.Errorf("core %d: idle bit %v, cur %v", o.id, idle, o.cur)
			}
			if o.cur != nil {
				running++
			}
		}
		if running != s.running {
			t.Errorf("running = %d, %d cores have a current process", s.running, running)
		}
		s.startOn(c, s.runqPop())
	}
}

// TestBitmaskDispatchMatchesCoreWalk runs one seeded tenant load twice —
// once dispatching through the idle-core bitmask, once through refDispatch
// — on 70 cores, so the bitmask spans two words, about two thirds busy, so
// most dispatches have several idle cores to choose from. Which core a
// process lands on decides whether it pays a context switch, and with that
// every later instant, so equal per-process CPU time plus equal switch and
// wake counts mean the two picked the same core every time.
func TestBitmaskDispatchMatchesCoreWalk(t *testing.T) {
	type stats struct {
		cpu    []sim.Duration
		waits  []int64
		ctx    int64
		wakes  int64
		events int64
	}
	run := func(reference bool) stats {
		const cores = 70
		k := sim.NewKernel(5)
		s := mustNew(t, k, DefaultConfig(cores))
		if reference {
			s.dispatchFn = func() {
				s.dispatchPend = false
				refDispatch(t, s)
			}
		}
		rng := sim.NewRNG(6)
		var procs []*Proc
		for i := 0; i < cores/7; i++ {
			p := s.NewProc("hog")
			p.SetRefill(func() sim.Duration { return 4 * sim.Millisecond })
			procs = append(procs, p)
		}
		for i := 0; i < 3*cores; i++ {
			p := s.NewProc("tenant")
			if i%7 == 0 {
				p.SetWakePenalty(0.05, 3*sim.Millisecond)
			}
			var burst, rest func()
			burst = func() { p.Submit(sim.Duration(rng.Exp(float64(300*sim.Microsecond))), rest) }
			rest = func() { k.AfterFunc(sim.Duration(rng.Exp(float64(1500*sim.Microsecond))), burst, nil) }
			k.AfterFunc(rng.DurationRange(0, sim.Millisecond), burst, nil)
			procs = append(procs, p)
		}
		if err := k.RunUntil(sim.Time(60 * sim.Millisecond)); err != nil {
			t.Fatal(err)
		}
		st := stats{ctx: s.ContextSwitches(), wakes: s.Wakes(), events: k.Executed()}
		for _, p := range procs {
			st.cpu = append(st.cpu, p.TotalCPU())
			st.waits = append(st.waits, p.waits)
		}
		return st
	}
	got, want := run(false), run(true)
	if got.ctx != want.ctx || got.wakes != want.wakes || got.events != want.events {
		t.Fatalf("bitmask: %d switches, %d wakes, %d events; core walk: %d, %d, %d",
			got.ctx, got.wakes, got.events, want.ctx, want.wakes, want.events)
	}
	if want.ctx < 1000 {
		t.Fatalf("only %d context switches; the load is not exercising dispatch", want.ctx)
	}
	for i := range want.cpu {
		if got.cpu[i] != want.cpu[i] || got.waits[i] != want.waits[i] {
			t.Fatalf("proc %d: bitmask ran it %v over %d slices, core walk %v over %d",
				i, got.cpu[i], got.waits[i], want.cpu[i], want.waits[i])
		}
	}
}
