package sim

import (
	"errors"
	"time"

	"hyperloop/internal/ring"
)

// Time is a virtual-clock instant in nanoseconds since the start of the
// simulation. It is unrelated to the wall clock.
type Time int64

// Duration re-exports time.Duration for convenience; virtual durations use
// the same unit (nanoseconds) as wall-clock durations.
type Duration = time.Duration

// Common virtual durations.
const (
	Nanosecond  = Duration(time.Nanosecond)
	Microsecond = Duration(time.Microsecond)
	Millisecond = Duration(time.Millisecond)
	Second      = Duration(time.Second)
)

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// String formats the instant as a duration offset, e.g. "1.5ms".
func (t Time) String() string { return Duration(t).String() }

// event is a scheduled callback. Events are recycled through a per-kernel
// free list; gen distinguishes incarnations so a stale Timer can never
// cancel a recycled event. gen is 64-bit on purpose: a 32-bit counter wraps
// after 2^32 recycles of one struct — reachable in a long fuzzing or
// soak run — at which point a stale Timer held across the wrap would
// cancel an innocent event. 64 bits never wrap in practice.
//
// hi, next and prev serve the timing wheel alone: an event in a wheel slot
// keeps its packed instant (packHi) in hi and is linked into the slot's
// list through next and prev; elsewhere the three are stale and unread.
type event struct {
	fn         func()
	seq        uint64
	gen        uint64
	hi         uint64
	next, prev *event
	index      int32 // position in the near or far heap, 0 in a wheel slot; -1 when not queued
	where      int32 // inNear, inFar, or a wheel slot
}

// ringEv is a same-instant callback queued on the kernel's FIFO ring
// instead of the event queue. Only callbacks scheduled with a nil *Timer ride the
// ring, so no handle can ever cancel one; seq keeps the total order exact
// when ring and queue both hold events for the current instant.
type ringEv struct {
	seq uint64
	fn  func()
}

// Timer is a handle to a scheduled event that can be cancelled. The zero
// value is an unarmed timer, ready for use with AfterFunc/AtFunc.
type Timer struct {
	k   *Kernel
	ev  *event
	gen uint64
}

// Stop cancels the timer. It reports whether the event had not yet fired.
//
// Stop is safe at any point in the event's lifetime: before it fires Stop
// removes it and returns true; at or after the instant it fires —
// including from the event's own callback, or from another event at the
// same virtual instant — the generation check sees the recycled struct and
// Stop returns false. The kernel bumps the generation before invoking the
// callback, so "has fired" and "stale handle" are the same observation.
func (t *Timer) Stop() bool {
	if t == nil || t.ev == nil {
		return false
	}
	ev := t.ev
	t.ev = nil
	if ev.gen != t.gen || ev.index < 0 {
		return false
	}
	t.k.q.remove(ev)
	t.k.release(ev)
	return true
}

// ErrStopped is returned by Run when StopRun was called.
var ErrStopped = errors.New("sim: run stopped")

// Kernel is the discrete-event simulation core. It is not safe for
// concurrent use; fibers hand control back and forth cooperatively so all
// simulation logic is effectively single-threaded.
type Kernel struct {
	now     Time
	seq     uint64
	q       eventQueue        // timers and future events; its horizon stays ahead of now
	nowq    ring.Ring[ringEv] // same-instant FIFO: timer-less events at t <= now
	free    []*event
	rng     *RNG
	stopped bool
	depth   int  // Run re-entry depth (RunUntil nests inside event callbacks)
	limit   Time // RunUntil's bound; in force while limited
	limited bool
	fibers  int // live fiber count, for leak detection

	fiberFree   []*Fiber // parked runner goroutines, reused across Spawns
	fiberStarts int64    // runner goroutines ever created (pool misses)

	executed int64
}

// NewKernel returns a kernel with its clock at zero and a deterministic RNG
// derived from seed.
func NewKernel(seed uint64) *Kernel {
	k := &Kernel{rng: NewRNG(seed)}
	k.q.hb = 1
	return k
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// RNG returns the kernel's deterministic random source.
func (k *Kernel) RNG() *RNG { return k.rng }

// Executed returns the number of events this kernel has executed.
func (k *Kernel) Executed() int64 { return k.executed }

// alloc takes an event from the free list (or the heap allocator) and arms
// it with fn and a fresh sequence number.
func (k *Kernel) alloc(fn func()) *event {
	k.seq++
	var ev *event
	if n := len(k.free); n > 0 {
		ev = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.fn = fn
	ev.seq = k.seq
	ev.index = -1
	return ev
}

// release returns a fired or cancelled event to the free list, bumping its
// generation so outstanding Timer handles go stale.
func (k *Kernel) release(ev *event) {
	ev.gen++
	ev.fn = nil
	k.free = append(k.free, ev)
}

// schedule queues fn at instant t (clamped to now) and returns its event.
func (k *Kernel) schedule(t Time, fn func()) *event {
	if t < k.now {
		t = k.now
	}
	ev := k.alloc(fn)
	k.q.push(heapEntry{hi: packHi(t), lo: ev.seq, ev: ev})
	return ev
}

// At schedules fn to run at instant t. Scheduling in the past is an error in
// simulation logic; such events fire immediately at the current time instead
// of rewinding the clock.
func (k *Kernel) At(t Time, fn func()) *Timer {
	ev := k.schedule(t, fn)
	return &Timer{k: k, ev: ev, gen: ev.gen}
}

// After schedules fn to run d from now.
func (k *Kernel) After(d Duration, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	return k.At(k.now.Add(d), fn)
}

// AfterFunc schedules fn to run d from now, reusing the caller-provided
// timer handle instead of allocating one. If t is still pending it is
// stopped first; t may be nil for fire-and-forget callbacks that will never
// be cancelled. This is the allocation-free path for hot schedulers (NIC
// engines, the CPU scheduler, fiber sleeps) that keep at most one
// outstanding callback per handle.
func (k *Kernel) AfterFunc(d Duration, fn func(), t *Timer) {
	if d < 0 {
		d = 0
	}
	k.AtFunc(k.now.Add(d), fn, t)
}

// AtFunc is AfterFunc with an absolute instant.
//
// A timer-less callback at the current instant — the shape of every
// doorbell, dispatch kick, and fiber start in the datapath — skips the
// event queue entirely: it is appended to the kernel's same-instant FIFO
// ring, which pops in O(1) with no event allocation. The ring preserves
// the exact (at, seq) total order: its entries all carry at == now, they
// are pushed (hence popped) in seq order, and the run loop fires a queued
// event first whenever the queue's front sorts earlier.
func (k *Kernel) AtFunc(at Time, fn func(), t *Timer) {
	if t == nil {
		if at <= k.now {
			k.seq++
			k.nowq.PushBack(ringEv{seq: k.seq, fn: fn})
			return
		}
		k.schedule(at, fn)
		return
	}
	t.Stop()
	ev := k.schedule(at, fn)
	t.k = k
	t.ev = ev
	t.gen = ev.gen
}

// StopRun makes Run return after the current event completes.
func (k *Kernel) StopRun() { k.stopped = true }

// Run executes events in order until the queue drains, the optional limit is
// reached, or StopRun is called. It returns ErrStopped in the latter case.
//
// Run may re-enter through RunUntil called from an event callback. The stop
// flag is reset only at top-level entry, so a StopRun issued during a nested
// RunUntil propagates out to the outer Run instead of being swallowed by the
// nested call's own reset.
//
// The goroutine that calls Run is the kernel for the whole run: the event
// loop executes on it and Run returns on it. Fiber bodies run on pooled
// runner goroutines that it hands control to and takes control back from.
func (k *Kernel) Run() error {
	if k.depth == 0 {
		k.stopped = false
	}
	k.depth++
	defer k.exitRun()
	for {
		if len(k.q.near) == 0 && k.nowq.Len() == 0 {
			if k.q.len() == 0 {
				return nil
			}
			k.q.refill()
		}
		if k.stopped {
			return ErrStopped
		}
		if k.limited && k.now > k.limit {
			// A nested RunUntil ran the clock past this one's bound.
			return nil
		}
		// Every queued event at the current instant is in the near heap
		// (the horizon is ahead of now), so its front is all the ring has
		// to be compared with. Ring entries sit at (now, seq); the queue's
		// front fires first if it sorts earlier (same instant, smaller seq).
		near := k.q.near
		useRing := k.nowq.Len() > 0
		if useRing && len(near) > 0 &&
			keyLess(near[0].hi, near[0].lo, packHi(k.now), k.nowq.Front().seq) {
			useRing = false
		}
		var fn func()
		if useRing {
			fn = k.nowq.PopFront().fn
		} else {
			at := unpackAt(near[0].hi)
			if k.limited && at > k.limit {
				k.now = k.limit
				return nil
			}
			k.now = at
			ev := k.q.near.pop().ev
			ev.index = -1
			fn = ev.fn
			k.release(ev) // before fn so the callback can reuse the slot
		}
		k.executed++
		fn()
	}
}

func (k *Kernel) exitRun() {
	k.depth--
	if k.depth != 0 {
		return
	}
	// Retire pooled fiber runners at top-level exit: reuse amortizes the
	// goroutine starts *within* a run (where the thousands of Spawns are),
	// while a kernel dropped after Run leaks nothing.
	k.drainFiberPool()
}

// RunUntil executes events up to and including instant t, then advances the
// clock to t and returns. Events after t remain queued; an instant already
// past runs nothing.
func (k *Kernel) RunUntil(t Time) error {
	if t < k.now {
		return nil
	}
	prev, prevLimited := k.limit, k.limited
	k.limit, k.limited = t, true
	err := k.Run()
	k.limit, k.limited = prev, prevLimited
	if err == nil && k.now < t {
		k.now = t
	}
	k.q.keepAhead(k.now) // the clock may have moved without a pop
	return err
}

// Pending reports the number of queued events (event queue and
// same-instant ring).
func (k *Kernel) Pending() int { return k.q.len() + k.nowq.Len() }

// PooledFibers reports the number of parked runner goroutines. The pool
// drains at top-level Run exit, so between runs it is zero.
func (k *Kernel) PooledFibers() int { return len(k.fiberFree) }

// LiveFibers reports the number of fibers that have started and not yet
// exited; useful to assert that a scenario wound down cleanly.
func (k *Kernel) LiveFibers() int { return k.fibers }

// FiberStarts reports how many runner goroutines this kernel has ever
// created. With the fiber pool, spawning N fibers sequentially costs one
// goroutine start, not N; the delta across a workload measures pool misses
// (it grows only with peak fiber concurrency per top-level Run).
func (k *Kernel) FiberStarts() int64 { return k.fiberStarts }
