// Package cpusim models a multi-tenant server's CPU scheduler.
//
// The HyperLoop paper's root-cause analysis (§2.2) is that replica
// processes in multi-tenant storage servers suffer scheduling delay and
// context switches because 100s of tenant processes share a few cores.
// This package reproduces that mechanism with a CFS-like scheduler: a
// global run queue ordered by virtual runtime, minimum-granularity time
// slices, wakeup placement, and an explicit context-switch cost. Replica
// handlers in the Naive-RDMA baseline run as processes here; HyperLoop's
// NIC datapath never enters this scheduler — which is the whole point.
package cpusim

import (
	"fmt"
	"math/bits"

	"hyperloop/internal/ring"
	"hyperloop/internal/sim"
)

// Config parameterizes the scheduler.
type Config struct {
	// Cores is the number of CPU cores.
	Cores int
	// CtxSwitch is the direct cost of switching a core between processes.
	CtxSwitch sim.Duration
	// MinGranularity is the shortest time slice (CFS sched_min_granularity).
	MinGranularity sim.Duration
	// TargetLatency is the scheduling period target (CFS sched_latency).
	TargetLatency sim.Duration
	// PollInterval is the event pickup delay for pinned polling processes.
	PollInterval sim.Duration
	// TickQuantum models timer-tick-granularity non-preemption (HZ):
	// once dispatched, CPU-bound work may hold a core for up to a tick
	// even when the fair-share slice is shorter. Woken interactive
	// processes therefore wait for a running batch task's tick to end —
	// the dominant source of multi-tenant tail latency (§2.2).
	TickQuantum sim.Duration
}

// DefaultConfig returns Linux-like defaults (DESIGN.md calibration).
func DefaultConfig(cores int) Config {
	return Config{
		Cores:          cores,
		CtxSwitch:      5 * sim.Microsecond,
		MinGranularity: 750 * sim.Microsecond,
		TargetLatency:  6 * sim.Millisecond,
		PollInterval:   1 * sim.Microsecond,
		TickQuantum:    4 * sim.Millisecond, // HZ=250, kernel 3.13 era
	}
}

// workItem is a unit of CPU work; fn (optional) runs when the item's CPU
// time has been fully consumed.
type workItem struct {
	cpu sim.Duration
	fn  func()
}

// Proc is a schedulable process.
type Proc struct {
	name  string
	s     *Scheduler
	seq   uint64
	index int // heap index; -1 when not queued

	vruntime  sim.Duration
	queue     []workItem
	qhead     int          // index of the oldest unconsumed work item
	qsum      sim.Duration // cached sum of unconsumed work
	running   bool
	pinned    bool
	busyUntil sim.Time            // pinned pollers serialize their dedicated core
	refill    func() sim.Duration // auto work for hogs/pollers; nil otherwise

	// Pinned-path completion FIFO: submissions on a dedicated core finish
	// strictly in submission order (busyUntil is monotone), so one cached
	// fire callback popping this ring replaces a closure per Submit.
	pinq      ring.Ring[workItem]
	pinFireFn func()

	wakePenalty     sim.Duration
	wakePenaltyProb float64

	totalCPU sim.Duration
	waits    int64
	waitTime sim.Duration
	wokeAt   sim.Time
}

// SetWakePenalty models hierarchical (per-tenant cgroup share) fairness:
// with probability prob, a woken process of a heavily co-located tenant is
// placed up to max behind the run-queue head instead of receiving the
// machine-wide sleeper bonus (its tenant group recently used its share).
// With an empty queue this has no effect; under load it makes the process
// wait behind a fair slice of the backlog — the multi-tenant scheduling
// penalty of §2.2.
func (p *Proc) SetWakePenalty(prob float64, max sim.Duration) {
	p.wakePenaltyProb = prob
	p.wakePenalty = max
}

// Name returns the process name.
func (p *Proc) Name() string { return p.name }

// TotalCPU returns the CPU time this process has consumed.
func (p *Proc) TotalCPU() sim.Duration { return p.totalCPU }

// MeanWait returns the average runnable→running delay observed.
func (p *Proc) MeanWait() sim.Duration {
	if p.waits == 0 {
		return 0
	}
	return p.waitTime / sim.Duration(p.waits)
}

// runqEnt is one run-queue entry: the (vruntime, seq) ordering key packed
// into two words (sign-flipped high word so unsigned comparison matches
// signed vruntime order) with the process pointer alongside. The key is
// snapshotted at push; vruntime only changes while a process is off the
// queue, so the snapshot never goes stale.
type runqEnt struct {
	hi, lo uint64
	p      *Proc
}

// vkLess compares packed run-queue keys as one 128-bit unsigned value —
// a single borrow chain instead of a two-field branch, mirroring the sim
// event heap. (vruntime, seq) is a strict total order, so any correct heap
// pops the same sequence: replacing container/heap changes no results.
func vkLess(ahi, alo, bhi, blo uint64) bool {
	_, borrow := bits.Sub64(alo, blo, 0)
	_, borrow = bits.Sub64(ahi, bhi, borrow)
	return borrow != 0
}

// procHeap is a concrete 4-ary min-heap over runqEnt — no interface
// boxing, hole-based sifts, and the four children of a node share a cache
// line. container/heap's Less/Swap/Push/Pop virtual calls were among the
// hottest frames in the dispatch path.
type procHeap []runqEnt

func (h procHeap) siftUp(i int) {
	e := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !vkLess(e.hi, e.lo, h[p].hi, h[p].lo) {
			break
		}
		h[i] = h[p]
		h[i].p.index = i
		i = p
	}
	h[i] = e
	e.p.index = i
}

func (h procHeap) siftDown(i int) {
	n := len(h)
	e := h[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		mhi, mlo := h[c].hi, h[c].lo
		hi4 := c + 4
		if hi4 > n {
			hi4 = n
		}
		for j := c + 1; j < hi4; j++ {
			if vkLess(h[j].hi, h[j].lo, mhi, mlo) {
				m, mhi, mlo = j, h[j].hi, h[j].lo
			}
		}
		if !vkLess(mhi, mlo, e.hi, e.lo) {
			break
		}
		h[i] = h[m]
		h[i].p.index = i
		i = m
	}
	h[i] = e
	e.p.index = i
}

func (s *Scheduler) runqPush(p *Proc) {
	p.index = len(s.runq)
	s.runq = append(s.runq, runqEnt{hi: uint64(p.vruntime) ^ (1 << 63), lo: p.seq, p: p})
	s.runq.siftUp(len(s.runq) - 1)
}

func (s *Scheduler) runqPop() *Proc {
	h := s.runq
	p := h[0].p
	n := len(h) - 1
	if n > 0 {
		h[0] = h[n]
		h[0].p.index = 0
	}
	h[n] = runqEnt{}
	s.runq = h[:n]
	if n > 1 {
		s.runq.siftDown(0)
	}
	p.index = -1
	return p
}

type core struct {
	id   int
	cur  *Proc
	last *Proc
	busy sim.Duration

	ran    sim.Duration // CPU time granted to cur in the current slice
	finish func()       // cached finishSlice callback (one outstanding per core)
}

// Scheduler is the CFS-like multi-core scheduler.
type Scheduler struct {
	k     *sim.Kernel
	cfg   Config
	rng   *sim.RNG
	cores []*core
	runq  procHeap
	seq   uint64

	idle    []uint64 // bit c%64 of word c/64 is set while core c runs nothing
	running int      // cores with a current process

	clockV       sim.Duration // monotone floor for wakeup placement
	ctxSwitches  int64
	wakes        int64 // runnable transitions (see Wakes)
	started      sim.Time
	dispatchPend bool
	dispatchFn   func()   // cached dispatch callback
	done         []func() // finishSlice's reusable callback scratch

	wakePenalty     sim.Duration // see SetWakePenalty
	wakePenaltyProb float64
}

// New creates a scheduler driven by kernel k.
func New(k *sim.Kernel, cfg Config) (*Scheduler, error) {
	if cfg.Cores <= 0 {
		return nil, fmt.Errorf("cpusim: need at least 1 core, got %d", cfg.Cores)
	}
	if cfg.MinGranularity <= 0 || cfg.TargetLatency <= 0 {
		return nil, fmt.Errorf("cpusim: granularity and target latency must be positive")
	}
	s := &Scheduler{
		k:       k,
		cfg:     cfg,
		rng:     k.RNG().Fork(),
		started: k.Now(),
		idle:    make([]uint64, (cfg.Cores+63)/64),
	}
	for i := 0; i < cfg.Cores; i++ {
		c := &core{id: i}
		c.finish = func() { s.finishSlice(c) }
		s.cores = append(s.cores, c)
		s.idle[i>>6] |= 1 << (i & 63)
	}
	s.dispatchFn = func() {
		s.dispatchPend = false
		s.dispatch()
	}
	return s, nil
}

// SetWakePenalty records the wake penalty of this server: the one a
// latency-sensitive process pays, per Proc.SetWakePenalty, for the tenants
// it shares the server with. The scheduler applies it to no process
// itself; a process that should pay it takes it with
// p.SetWakePenalty(s.WakePenalty()). A multi-tenant rack server records
// one (topo's colocate states its values); an idle one records none.
func (s *Scheduler) SetWakePenalty(prob float64, max sim.Duration) {
	s.wakePenaltyProb, s.wakePenalty = prob, max
}

// WakePenalty returns the penalty SetWakePenalty recorded, in the
// argument order of Proc.SetWakePenalty (zero if none was).
func (s *Scheduler) WakePenalty() (prob float64, max sim.Duration) {
	return s.wakePenaltyProb, s.wakePenalty
}

// NewProc registers a schedulable process.
func (s *Scheduler) NewProc(name string) *Proc {
	s.seq++
	return &Proc{name: name, s: s, seq: s.seq, index: -1, vruntime: s.clockV}
}

// Cores returns the configured core count.
func (s *Scheduler) Cores() int { return s.cfg.Cores }

// ContextSwitches returns the cumulative context-switch count.
func (s *Scheduler) ContextSwitches() int64 { return s.ctxSwitches }

// Wakes returns how many times a process became runnable (sleep→runnable
// transitions). With batched CQ draining a handler wakes its process once
// per drained batch rather than once per completion, so this counter is
// the cheapest way to observe the batching in tests and benchmarks.
func (s *Scheduler) Wakes() int64 { return s.wakes }

// Utilization returns the busy fraction of unpinned cores since creation;
// pinned (polling) cores are reported separately as always-busy.
func (s *Scheduler) Utilization() float64 {
	elapsed := s.k.Now().Sub(s.started)
	if elapsed <= 0 {
		return 0
	}
	var busy sim.Duration
	n := 0
	for _, c := range s.cores {
		busy += c.busy
		n++
	}
	return float64(busy) / (float64(elapsed) * float64(n))
}

// Submit queues cpu time of work for p; fn (may be nil) runs once the work
// has been executed on a core. If p was sleeping it becomes runnable.
func (p *Proc) Submit(cpu sim.Duration, fn func()) {
	if cpu < 0 {
		cpu = 0
	}
	if p.pinned {
		// A pinned poller picks the event up within a poll interval and
		// handles it on its dedicated core — serially: the core is a real
		// resource even when dedicated.
		start := p.s.k.Now().Add(p.s.cfg.PollInterval)
		if p.busyUntil > start {
			start = p.busyUntil
		}
		done := start.Add(cpu)
		p.busyUntil = done
		p.pinq.PushBack(workItem{cpu: cpu, fn: fn})
		p.s.k.AtFunc(done, p.pinFireFn, nil)
		return
	}
	p.queue = append(p.queue, workItem{cpu: cpu, fn: fn})
	p.qsum += cpu
	p.s.wake(p)
}

// SetRefill installs an auto-refill source: when the queue drains the
// process immediately gains another chunk of CPU work (a hog or poller).
// SetRefill(nil) ends it: the process runs what it has queued — a chunk
// already drawn included — and then sleeps until work is submitted.
func (p *Proc) SetRefill(chunk func() sim.Duration) {
	p.refill = chunk
	p.s.wake(p)
}

// Pin gives p a dedicated core of its own to busy-poll on: submitted work
// is picked up within a poll interval and handled there, serially. The
// core is extra — the shared pool keeps all cfg.Cores cores, so pinning
// does not shrink what the other processes are scheduled on.
func (p *Proc) Pin() {
	p.pinned = true
	if p.pinFireFn == nil {
		p.pinFireFn = func() {
			w := p.pinq.PopFront()
			p.totalCPU += w.cpu
			if w.fn != nil {
				w.fn()
			}
		}
	}
}

// Pinned reports whether the process busy-polls on a dedicated core.
func (p *Proc) Pinned() bool { return p.pinned }

// pendingCPU returns queued CPU work (a cached running sum), pulling from
// refill if empty.
func (p *Proc) pendingCPU() sim.Duration {
	if p.qhead == len(p.queue) && p.refill != nil {
		chunk := p.refill()
		p.queue = append(p.queue, workItem{cpu: chunk})
		p.qsum += chunk
	}
	return p.qsum
}

// wake makes p runnable with CFS-style placement: a sleeper resumes near
// the front (bounded bonus) so interactive work preempts batch hogs soon,
// but cannot starve them.
func (s *Scheduler) wake(p *Proc) {
	if p.running || p.index >= 0 || p.pinned {
		return
	}
	if p.pendingCPU() <= 0 {
		return
	}
	min := p.vruntime
	floor := s.clockV - s.cfg.TargetLatency/2
	if p.wakePenalty > 0 && s.rng.Bernoulli(p.wakePenaltyProb) {
		floor = s.clockV + sim.Duration(s.rng.Int63n(int64(p.wakePenalty)))
	}
	if floor > min {
		min = floor
	}
	p.vruntime = min
	p.wokeAt = s.k.Now()
	s.wakes++
	s.runqPush(p)
	s.scheduleDispatch()
}

func (s *Scheduler) scheduleDispatch() {
	if s.dispatchPend {
		return
	}
	s.dispatchPend = true
	s.k.AfterFunc(0, s.dispatchFn, nil)
}

// slice returns the per-dispatch time slice under current load.
func (s *Scheduler) slice() sim.Duration {
	nr := len(s.runq) + s.running
	if nr == 0 {
		nr = 1
	}
	d := s.cfg.TargetLatency * sim.Duration(s.cfg.Cores) / sim.Duration(nr)
	if d < s.cfg.MinGranularity {
		d = s.cfg.MinGranularity
	}
	return d
}

// dispatch starts queued processes on idle cores, lowest core first.
func (s *Scheduler) dispatch() {
	for w, free := range s.idle {
		for ; free != 0 && len(s.runq) > 0; free &= free - 1 {
			s.startOn(s.cores[w<<6+bits.TrailingZeros64(free)], s.runqPop())
		}
	}
}

func (s *Scheduler) startOn(c *core, p *Proc) {
	c.cur = p
	s.idle[c.id>>6] &^= 1 << (c.id & 63)
	s.running++
	p.running = true
	p.waits++
	p.waitTime += s.k.Now().Sub(p.wokeAt)

	var ctx sim.Duration
	if c.last != p {
		ctx = s.cfg.CtxSwitch
		s.ctxSwitches++
	}
	limit := s.slice()
	if limit < s.cfg.TickQuantum {
		limit = s.cfg.TickQuantum
	}
	run := p.pendingCPU()
	if run > limit {
		run = limit
	}
	total := ctx + run
	c.busy += total
	c.ran = run
	s.k.AfterFunc(total, c.finish, nil)
}

func (s *Scheduler) finishSlice(c *core) {
	p, ran := c.cur, c.ran
	p.vruntime += ran
	p.totalCPU += ran
	p.running = false
	c.cur = nil
	s.idle[c.id>>6] |= 1 << (c.id & 63)
	s.running--
	c.last = p
	if p.vruntime-s.cfg.TargetLatency > s.clockV {
		s.clockV = p.vruntime - s.cfg.TargetLatency
	}

	// Consume work items covered by this slice; collect their callbacks.
	// The queue pops by advancing a head index (O(1) per item, no shift)
	// and the callback list reuses a per-scheduler scratch slice.
	done := s.done[:0]
	s.done = nil // taken; a re-entrant finishSlice allocates its own
	left := ran
	for p.qhead < len(p.queue) && left > 0 {
		w := &p.queue[p.qhead]
		if w.cpu <= left {
			left -= w.cpu
			p.qsum -= w.cpu
			if w.fn != nil {
				done = append(done, w.fn)
			}
			*w = workItem{}
			p.qhead++
		} else {
			w.cpu -= left
			p.qsum -= left
			left = 0
		}
	}
	if p.qhead == len(p.queue) {
		p.queue = p.queue[:0]
		p.qhead = 0
	}

	// Re-enqueue before callbacks so submissions from callbacks see a
	// consistent state.
	if p.pendingCPU() > 0 {
		p.wokeAt = s.k.Now()
		s.runqPush(p)
	}
	for i, fn := range done {
		fn()
		done[i] = nil
	}
	s.done = done[:0]
	s.scheduleDispatch()
}

// AddHogs adds n CPU-bound processes (stress-ng style) that stay runnable
// forever, keeping the machine saturated.
func (s *Scheduler) AddHogs(n int) {
	chunk := s.cfg.TickQuantum
	if chunk <= 0 {
		chunk = s.cfg.MinGranularity
	}
	for i := 0; i < n; i++ {
		p := s.NewProc(fmt.Sprintf("hog-%d", i))
		p.SetRefill(func() sim.Duration { return chunk })
	}
}

// AddNoise adds n tenant-like processes alternating exponential idle and
// CPU bursts: the co-located replica processes of a multi-tenant server.
// They create the bursty queueing that inflates tail latency.
func (s *Scheduler) AddNoise(n int, burst, idle sim.Duration) {
	for i := 0; i < n; i++ {
		p := s.NewProc(fmt.Sprintf("noise-%d", i))
		// loop and rest are allocated once per process and reused for every
		// burst — the previous per-burst completion closure was one of the
		// hottest allocation sites in the whole simulator.
		var loop, rest func()
		loop = func() {
			b := sim.Duration(s.rng.Exp(float64(burst)))
			p.Submit(b, rest)
		}
		rest = func() {
			s.k.AfterFunc(sim.Duration(s.rng.Exp(float64(idle))), loop, nil)
		}
		// Stagger starts to avoid synchronized bursts.
		s.k.AfterFunc(s.rng.DurationRange(0, idle+1), loop, nil)
	}
}

// AddStorms models periodic batch daemons (compaction, log rotation, page
// flushers): every ~interval, each of n daemon processes receives a burst
// of CPU work simultaneously. A replica handler woken during a storm
// queues behind the whole cohort — the dominant source of multi-ms tail
// latency on saturated multi-tenant boxes.
func (s *Scheduler) AddStorms(n int, interval, burst sim.Duration) {
	procs := make([]*Proc, n)
	for i := range procs {
		procs[i] = s.NewProc(fmt.Sprintf("daemon-%d", i))
	}
	var loop func()
	loop = func() {
		for _, p := range procs {
			p.Submit(sim.Duration(s.rng.Exp(float64(burst))), nil)
		}
		s.k.AfterFunc(sim.Duration(s.rng.Exp(float64(interval))), loop, nil)
	}
	s.k.AfterFunc(s.rng.DurationRange(0, interval+1), loop, nil)
}
