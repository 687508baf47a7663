package sim

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"
)

// The event queue is tested through the kernel's API only: one script of
// scheduling, cancelling and running steps is played against the kernel
// and against refKernel — every pending event in one slice, the next one
// found by sorting on (at, seq) — and the two logs (each fired event with
// its instant; result, clock and Pending() after every step) must match.
// Which of the three containers an event sat in never shows in the log;
// getting it wrong does.

// scriptSlots is the number of Timer handles a script juggles.
const scriptSlots = 4

// machine is what a script drives: the kernel, or the reference.
type machine interface {
	Now() Time
	Pending() int
	// schedule arms fn at instant at. slot < 0 passes a nil *Timer
	// (AtFunc); otherwise the slot's handle is re-armed (AtFunc) or, with
	// fresh set, replaced by the handle a new At returns.
	schedule(at Time, fn func(), slot int, fresh bool)
	after(d Duration, fn func(), slot int)
	stop(slot int) bool
	Run() error
	RunUntil(t Time) error
	StopRun()
}

type realMachine struct {
	*Kernel
	h [scriptSlots]*Timer
}

func newRealMachine() *realMachine {
	m := &realMachine{Kernel: NewKernel(1)}
	for i := range m.h {
		m.h[i] = &Timer{}
	}
	return m
}

func (m *realMachine) schedule(at Time, fn func(), slot int, fresh bool) {
	switch {
	case slot < 0:
		m.AtFunc(at, fn, nil)
	case fresh:
		m.h[slot] = m.At(at, fn)
	default:
		m.AtFunc(at, fn, m.h[slot])
	}
}

func (m *realMachine) after(d Duration, fn func(), slot int) {
	if slot < 0 {
		m.AfterFunc(d, fn, nil)
	} else {
		m.AfterFunc(d, fn, m.h[slot])
	}
}

func (m *realMachine) stop(slot int) bool { return m.h[slot].Stop() }

// refEvent is one pending event of the reference.
type refEvent struct {
	at  Time
	seq uint64
	fn  func()
}

// refKernel is the kernel's contract restated with no data structure: a
// clock, a sequence counter and a slice of pending events.
type refKernel struct {
	now     Time
	seq     uint64
	events  []*refEvent
	h       [scriptSlots]*refEvent // the event each handle can still cancel
	stopped bool
	depth   int
	limit   Time
	limited bool
}

func (r *refKernel) Now() Time    { return r.now }
func (r *refKernel) Pending() int { return len(r.events) }
func (r *refKernel) StopRun()     { r.stopped = true }

func (r *refKernel) schedule(at Time, fn func(), slot int, fresh bool) {
	if slot >= 0 && !fresh {
		r.stop(slot)
	}
	if at < r.now {
		at = r.now
	}
	r.seq++
	ev := &refEvent{at: at, seq: r.seq, fn: fn}
	r.events = append(r.events, ev)
	if slot >= 0 {
		r.h[slot] = ev
	}
}

func (r *refKernel) after(d Duration, fn func(), slot int) {
	if d < 0 {
		d = 0
	}
	r.schedule(r.now.Add(d), fn, slot, false)
}

func (r *refKernel) stop(slot int) bool {
	ev := r.h[slot]
	r.h[slot] = nil
	for i, e := range r.events {
		if e == ev {
			r.events = append(r.events[:i], r.events[i+1:]...)
			return true
		}
	}
	return false
}

func (r *refKernel) Run() error {
	if r.depth == 0 {
		r.stopped = false
	}
	r.depth++
	defer func() { r.depth-- }()
	for {
		if len(r.events) == 0 {
			return nil
		}
		if r.stopped {
			return ErrStopped
		}
		if r.limited && r.now > r.limit {
			return nil
		}
		sort.Slice(r.events, func(i, j int) bool {
			return refLess(r.events[i].at, r.events[i].seq, r.events[j].at, r.events[j].seq)
		})
		ev := r.events[0]
		if r.limited && ev.at > r.limit {
			r.now = r.limit
			return nil
		}
		r.events = r.events[1:]
		r.now = ev.at
		ev.fn()
	}
}

func (r *refKernel) RunUntil(t Time) error {
	if t < r.now {
		return nil
	}
	prev, prevLimited := r.limit, r.limited
	r.limit, r.limited = t, true
	err := r.Run()
	r.limit, r.limited = prev, prevLimited
	if err == nil && r.now < t {
		r.now = t
	}
	return err
}

// A step's instant is a base plus adj: an absolute instant, an offset from
// the clock, or the start of the window v windows ahead of the clock's —
// the last two land events exactly on bucket and span boundaries wherever
// the clock has got to.
const (
	whenAbs = iota
	whenRel
	whenWindow
)

type when struct {
	kind   int
	v, adj int64
}

func (w when) resolve(now Time) Time {
	switch w.kind {
	case whenRel:
		return now + Time(w.v) + Time(w.adj)
	case whenWindow:
		return (now>>bucketShift+Time(w.v))<<bucketShift + Time(w.adj)
	}
	return Time(w.v) + Time(w.adj)
}

// What a fired event does, fixed when it is scheduled.
const (
	actNone     = iota
	actRing     // schedule a timer-less event at the current instant
	actTimer    // re-arm handle slot at `at` through AfterFunc/AtFunc
	actStop     // stop handle slot
	actNested   // RunUntil(at) from inside the callback
	actStopRun  // StopRun
	numActKinds = iota
)

type action struct {
	kind int
	slot int
	at   when
}

// Top-level steps.
const (
	opSchedule = iota // AtFunc(at, act, slot's handle or nil)
	opAt              // slot's handle = At(at, act)
	opAfter           // AfterFunc(at.v, act, slot's handle or nil)
	opStop            // slot's handle.Stop()
	opRunUntil        // RunUntil(at)
	opRun             // Run()
)

type step struct {
	op   int
	slot int // -1: no handle
	at   when
	act  action
}

// play runs script on m and returns the log.
func play(m machine, script []step) []string {
	var log []string
	id := 0
	var callback func(a action) func()
	callback = func(a action) func() {
		id++
		me := id
		return func() {
			log = append(log, fmt.Sprintf("fire %d at %d", me, m.Now()))
			switch a.kind {
			case actRing:
				m.schedule(m.Now(), callback(action{}), -1, false)
			case actTimer:
				m.schedule(a.at.resolve(m.Now()), callback(action{}), a.slot, false)
			case actStop:
				log = append(log, fmt.Sprintf("  stop %d: %v", a.slot, m.stop(a.slot)))
			case actNested:
				err := m.RunUntil(a.at.resolve(m.Now()))
				log = append(log, fmt.Sprintf("  nested: %v, now %d", err, m.Now()))
			case actStopRun:
				m.StopRun()
			}
		}
	}
	for i, s := range script {
		var res interface{}
		switch s.op {
		case opSchedule:
			m.schedule(s.at.resolve(m.Now()), callback(s.act), s.slot, false)
		case opAt:
			m.schedule(s.at.resolve(m.Now()), callback(s.act), s.slot, true)
		case opAfter:
			m.after(Duration(s.at.v), callback(s.act), s.slot)
		case opStop:
			res = m.stop(s.slot)
		case opRunUntil:
			res = m.RunUntil(s.at.resolve(m.Now()))
		case opRun:
			res = m.Run()
		}
		log = append(log, fmt.Sprintf("step %d: %v, now %d, pending %d", i, res, m.Now(), m.Pending()))
	}
	// Whatever the script left queued still has to come out in order.
	res := m.Run()
	return append(log, fmt.Sprintf("drain: %v, now %d, pending %d", res, m.Now(), m.Pending()))
}

// checkScript plays script on both machines and fails at the first line
// where the kernel's log departs from the reference's.
func checkScript(t testing.TB, script []step) []string {
	t.Helper()
	got := play(newRealMachine(), script)
	want := play(&refKernel{}, script)
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("log line %d:\n  kernel:    %q\n  reference: %q\nscript: %+v", i, g, w, script)
		}
	}
	return got
}

// decodeScript turns bytes into steps — the one encoding the seeded test
// and the fuzzer share. Every byte string is a valid script.
func decodeScript(data []byte) []step {
	next := func() int64 {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int64(b)
	}
	windows := []int64{0, 1, 2, wheelBuckets - 1, wheelBuckets, wheelBuckets + 1, 2 * wheelBuckets, 3*wheelBuckets + 7}
	extremes := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	instant := func() when {
		a, b := next(), next()
		adj := a>>4%3 - 1
		switch a % 8 {
		case 0:
			return when{kind: whenRel} // now
		case 1:
			return when{kind: whenRel, v: b} // same or next window
		case 2:
			return when{kind: whenWindow, v: windows[b%int64(len(windows))], adj: adj}
		case 3:
			return when{kind: whenWindow, v: b * 9, adj: adj} // across the span and beyond
		case 4:
			return when{kind: whenRel, v: b << 16} // up to 16.7 ms: the wheel
		case 5:
			return when{kind: whenRel, v: b << 22} // up to 1 s: the far heap
		case 6:
			return when{kind: whenRel, v: -b} // the past: clamped
		}
		// The int64 extremes only now and then: once one fires, the clock
		// is at the end of time and the rest of the script has no room.
		if b >= 32 {
			return when{kind: whenRel, v: b << 8}
		}
		return when{kind: whenAbs, v: extremes[b%int64(len(extremes))]}
	}
	slot := func(b int64) int { return int(b%(scriptSlots+1)) - 1 }
	ops := [16]int{opSchedule, opSchedule, opSchedule, opSchedule, opSchedule, opSchedule, opSchedule,
		opAt, opAfter, opAfter, opStop, opStop, opRunUntil, opRunUntil, opRunUntil, opRunUntil}
	var script []step
	for len(data) > 0 && len(script) < 400 {
		b := next()
		s := step{op: ops[b%16], slot: slot(b >> 4)}
		if b == 31 { // the rare one takes a code point of its own
			s.op = opRun
		}
		if (s.op == opAt || s.op == opStop) && s.slot < 0 {
			s.slot = 0 // these two need a handle
		}
		switch s.op {
		case opSchedule, opAt, opAfter:
			s.at = instant()
			a := next()
			s.act = action{kind: int(a % 16), slot: int(a >> 4 % scriptSlots)}
			if s.act.kind >= numActKinds {
				s.act.kind = actNone
			}
			if s.act.kind == actTimer || s.act.kind == actNested {
				s.act.at = instant()
			}
		case opRunUntil:
			s.at = instant()
		}
		script = append(script, s)
	}
	return script
}

// TestEventQueueDifferential plays seeded random scripts. The generator's
// instants concentrate on the boundaries the three containers meet at;
// TestEventQueueCorners pins the named cases one by one.
func TestEventQueueDifferential(t *testing.T) {
	rng := NewRNG(20261004)
	fired := 0
	for i := 0; i < 300; i++ {
		data := make([]byte, 32+rng.Intn(600))
		for j := range data {
			data[j] = byte(rng.Uint64())
		}
		for _, line := range checkScript(t, decodeScript(data)) {
			if len(line) > 4 && line[:4] == "fire" {
				fired++
			}
		}
	}
	if fired < 10000 {
		t.Fatalf("scripts fired only %d events; the generator is not exercising the queue", fired)
	}
}

func TestEventQueueCorners(t *testing.T) {
	const bucket = 1 << bucketShift
	const span = wheelBuckets * bucket
	abs := func(v int64) when { return when{kind: whenAbs, v: v} }
	rel := func(v int64) when { return when{kind: whenRel, v: v} }
	sched := func(at when, slot int) step { return step{op: opSchedule, slot: slot, at: at} }
	schedAct := func(at when, a action) step { return step{op: opSchedule, slot: -1, at: at, act: a} }
	runUntil := func(at when) step { return step{op: opRunUntil, at: at} }
	stop := func(slot int) step { return step{op: opStop, slot: slot} }

	cases := map[string][]step{
		"int64 extremes and negative instants": {
			sched(abs(math.MaxInt64), -1), sched(abs(math.MaxInt64-1), 0), sched(abs(math.MaxInt64), 1),
			sched(abs(math.MinInt64), -1), sched(abs(-1), 2), sched(abs(0), -1), sched(abs(1), -1),
			runUntil(abs(math.MaxInt64 - 1)),
			sched(abs(math.MaxInt64), -1), sched(abs(math.MinInt64), 3),
		},
		"bucket and span boundaries": {
			sched(abs(bucket+1), -1), sched(abs(bucket), -1), sched(abs(bucket-1), -1),
			sched(abs(span+bucket+1), -1), sched(abs(span+bucket), -1), sched(abs(span+bucket-1), -1),
			sched(abs(span+1), -1), sched(abs(span), -1), sched(abs(span-1), -1),
			sched(abs(2*span), 0), sched(abs(2*span-1), 1), sched(abs(2*span+bucket), 2),
			runUntil(abs(bucket)), runUntil(abs(span - 1)), runUntil(abs(span)),
			sched(abs(2*span+bucket-1), -1), sched(abs(2*span), -1),
		},
		"far events migrate into the wheel as the span moves": {
			sched(abs(int64(Second)), -1), sched(abs(2*int64(Second)), 0), sched(abs(int64(Second)+1), -1),
			runUntil(abs(int64(Second) - span/2)),
			sched(abs(int64(Second)-1), -1), sched(abs(int64(Second)), -1),
			runUntil(abs(int64(Second))),
			sched(abs(2*int64(Second)), -1), sched(rel(span), -1), sched(rel(span-1), -1),
		},
		"timer and ring events at one instant after RunUntil passed the horizon": {
			runUntil(abs(100 * int64(Millisecond))),
			sched(rel(0), 0), sched(rel(0), -1), sched(rel(0), 1), sched(rel(0), -1),
			schedAct(rel(0), action{kind: actRing}), sched(rel(0), 2),
		},
		"Stop in each container and through a stale handle": {
			sched(abs(5), 0), sched(abs(3*bucket), 1), sched(abs(3*span), 2), sched(abs(7), 3),
			stop(0), stop(1), stop(2), stop(0),
			sched(abs(6), 0), sched(abs(3*bucket), 1), sched(abs(3*bucket), -1), sched(abs(3*span), 2), sched(abs(3*span), -1),
			runUntil(abs(10)), // fires slots 0 and 3
			stop(0), stop(3), stop(1), stop(2), stop(1),
		},
		"Stop the head, a middle and the tail of one slot's list": {
			// One window, pushed in the order 0, -, 1, -, 2, 3: its list runs
			// 3 (head), 2, -, 1, -, 0 (tail).
			sched(abs(3*bucket+5), 0), sched(abs(3*bucket+1), -1), sched(abs(3*bucket+4), 1),
			sched(abs(3*bucket+2), -1), sched(abs(3*bucket+3), 2), sched(abs(3*bucket+6), 3),
			stop(3), stop(2), // the head, then the new head
			stop(1), stop(0), // a middle, then the tail
			sched(abs(4*bucket+1), 3), stop(3), // the only event of its slot: the slot empties
			sched(abs(5*bucket), -1), sched(abs(3*bucket+7), 0), stop(0), sched(abs(3*bucket), 1),
			runUntil(abs(4 * bucket)),
			sched(abs(4*bucket+1), 2), stop(2), stop(2),
		},
		"Stop from callbacks, across containers": {
			sched(abs(2*bucket), 0), sched(abs(span/2), 1), sched(abs(5*span), 2),
			schedAct(abs(3), action{kind: actStop, slot: 1}),
			schedAct(abs(3), action{kind: actStop, slot: 2}),
			schedAct(abs(2*bucket), action{kind: actStop, slot: 0}), // same instant, later seq: already fired
		},
		"nested RunUntil, within and beyond the outer bound": {
			sched(abs(10), -1), sched(abs(3*bucket), -1), sched(abs(span+5), -1), sched(abs(4*span), -1),
			schedAct(abs(5), action{kind: actNested, at: abs(2 * bucket)}),
			schedAct(abs(5), action{kind: actRing}),
			schedAct(abs(3*bucket), action{kind: actNested, at: abs(2 * span)}),
			schedAct(abs(3*bucket), action{kind: actRing}),
			runUntil(abs(4 * bucket)),
			sched(rel(0), 0), sched(rel(0), -1),
		},
		"StopRun leaves the rest queued": {
			sched(abs(1), -1), schedAct(abs(2), action{kind: actStopRun}), schedAct(abs(2), action{kind: actRing}),
			sched(abs(bucket), -1), sched(abs(2*span), -1),
			{op: opRun}, runUntil(abs(bucket)),
		},
		"RunUntil of the current and of a past instant": {
			sched(abs(0), 0), sched(abs(5), -1),
			runUntil(abs(0)), runUntil(abs(-3)), runUntil(abs(4)), runUntil(abs(2)), runUntil(abs(5)),
		},
	}
	for name, script := range cases {
		t.Run(name, func(t *testing.T) { checkScript(t, script) })
	}
}

// TestRunUntilZeroLeavesLaterEvents: a bound of zero is a bound, not "no
// bound".
func TestRunUntilZeroLeavesLaterEvents(t *testing.T) {
	k := NewKernel(1)
	fired := false
	k.AfterFunc(5, func() { fired = true }, nil)
	if err := k.RunUntil(0); err != nil {
		t.Fatal(err)
	}
	if fired || k.Now() != 0 || k.Pending() != 1 {
		t.Fatalf("RunUntil(0): fired=%v now=%d pending=%d, want the t=5 event still queued at t=0",
			fired, k.Now(), k.Pending())
	}
}

// FuzzEventQueueOrder feeds arbitrary scripts through the differential
// harness.
func FuzzEventQueueOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x00\x02\x04\x00\x10\x12\x03\x00\x04\x04\x02\x05\x24\x07\x01\x00\x05"))
	rng := NewRNG(7)
	for i := 0; i < 8; i++ {
		data := make([]byte, 64<<uint(i%4))
		for j := range data {
			data[j] = byte(rng.Uint64())
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkScript(t, decodeScript(data)) })
}

// TestWheelSteadyStateAllocs: the timing wheel owns no arrays — a slot is
// a list through the pooled events — so a kernel that has reached its peak
// residency allocates nothing more, however its events spread over the
// slots. The hold model keeps 16 events resident and re-arms one shared
// op timeout (a Stop inside a slot's list on every fire); every burstEvery
// it parks a burst of events in one window 5 ms ahead. burstEvery is not a
// divisor of the wheel's span, so the bursts walk across the slots, and a
// wheel whose slots grew arrays would allocate for each slot a burst meets
// for the first time. After the first rotation, which holds the first
// burst, two windows of eight more are counted: the quieter must show no
// malloc at all.
func TestWheelSteadyStateAllocs(t *testing.T) {
	const (
		span       = Duration(wheelBuckets << bucketShift) // one rotation, 16.8 ms
		burstEvery = span * 37 / 100
		burstSize  = 200
	)
	k := NewKernel(1)
	rng := NewRNG(3)
	delays := make([]Duration, 1<<10)
	for i := range delays {
		delays[i] = Duration(rng.Exp(40_000)) + 1 // mean 40 µs, never the ring
	}
	nop := func() {}
	var timeout Timer
	next := 0
	var hold func()
	hold = func() {
		next = (next + 1) & (len(delays) - 1)
		k.AfterFunc(delays[next], hold, nil)
		k.AfterFunc(400*Microsecond, nop, &timeout)
	}
	for i := 0; i < 16; i++ {
		k.AfterFunc(delays[i], hold, nil)
	}
	bursts := 0
	var burst func()
	burst = func() {
		bursts++
		w := k.Now().Add(5*Millisecond) >> bucketShift << bucketShift
		for i := 0; i < burstSize; i++ {
			k.AtFunc(w+Time(i), nop, nil)
		}
		k.AfterFunc(burstEvery, burst, nil)
	}
	k.AfterFunc(Millisecond, burst, nil)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if err := k.RunUntil(Time(span)); err != nil {
		t.Fatal(err)
	}
	// The malloc count is process-wide, so it is taken over two windows of
	// eight rotations each and the smaller kept: an allocation made once by
	// anything else in the process lands in at most one of them, while one
	// the wheel makes per rotation lands in both.
	mallocs := uint64(math.MaxUint64)
	for end := 9 * span; end <= 17*span; end += 8 * span {
		// Let a collection the previous rotations may have started finish
		// before counting: its runtime work is not the wheel's.
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := k.RunUntil(Time(end))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		mallocs = min(mallocs, after.Mallocs-before.Mallocs)
	}
	if bursts < 40 {
		t.Fatalf("only %d bursts in 17 rotations, want one per burstEvery", bursts)
	}
	if mallocs > 0 {
		t.Errorf("rotations 2-9 and 10-17 of the hold model: at least %d mallocs in each, want 0", mallocs)
	}
}
