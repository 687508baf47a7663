package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKernelOrdering(t *testing.T) {
	k := NewKernel(1)
	var order []int
	k.After(3*Microsecond, func() { order = append(order, 3) })
	k.After(1*Microsecond, func() { order = append(order, 1) })
	k.After(2*Microsecond, func() { order = append(order, 2) })
	if err := k.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if got := k.Now(); got != Time(3*Microsecond) {
		t.Fatalf("clock = %v, want 3µs", got)
	}
}

func TestKernelSameInstantFIFO(t *testing.T) {
	k := NewKernel(1)
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		k.At(Time(5*Microsecond), func() { order = append(order, i) })
	}
	if err := k.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events not FIFO: order[%d]=%d", i, v)
		}
	}
}

func TestKernelNestedScheduling(t *testing.T) {
	k := NewKernel(1)
	fired := 0
	k.After(Microsecond, func() {
		fired++
		k.After(Microsecond, func() {
			fired++
			k.After(0, func() { fired++ })
		})
	})
	if err := k.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if fired != 3 {
		t.Fatalf("fired = %d, want 3", fired)
	}
	if k.Now() != Time(2*Microsecond) {
		t.Fatalf("clock = %v, want 2µs", k.Now())
	}
}

func TestKernelPastEventClamped(t *testing.T) {
	k := NewKernel(1)
	var at Time
	k.After(10*Microsecond, func() {
		k.At(Time(Microsecond), func() { at = k.Now() }) // in the past
	})
	if err := k.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if at != Time(10*Microsecond) {
		t.Fatalf("past event fired at %v, want clamp to 10µs", at)
	}
}

func TestTimerStop(t *testing.T) {
	k := NewKernel(1)
	fired := false
	tm := k.After(Microsecond, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop returned false for pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	if err := k.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestRunUntil(t *testing.T) {
	k := NewKernel(1)
	var fired []int
	k.After(1*Millisecond, func() { fired = append(fired, 1) })
	k.After(3*Millisecond, func() { fired = append(fired, 3) })
	if err := k.RunUntil(Time(2 * Millisecond)); err != nil {
		t.Fatalf("run until: %v", err)
	}
	if len(fired) != 1 || fired[0] != 1 {
		t.Fatalf("fired = %v, want [1]", fired)
	}
	if k.Now() != Time(2*Millisecond) {
		t.Fatalf("clock = %v, want 2ms", k.Now())
	}
	if err := k.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(fired) != 2 {
		t.Fatalf("fired = %v, want both", fired)
	}
}

func TestStopRun(t *testing.T) {
	k := NewKernel(1)
	n := 0
	for i := 0; i < 10; i++ {
		k.After(Duration(i)*Microsecond, func() {
			n++
			if n == 3 {
				k.StopRun()
			}
		})
	}
	if err := k.Run(); err != ErrStopped {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if n != 3 {
		t.Fatalf("executed %d events before stop, want 3", n)
	}
}

func TestFiberSleepAndAwait(t *testing.T) {
	k := NewKernel(1)
	sig := NewSignal()
	var trace []string
	k.Spawn("a", func(f *Fiber) {
		trace = append(trace, "a-start")
		f.Sleep(5 * Microsecond)
		trace = append(trace, "a-slept")
		sig.Fire(nil)
	})
	k.Spawn("b", func(f *Fiber) {
		trace = append(trace, "b-start")
		if err := f.Await(sig); err != nil {
			t.Errorf("await: %v", err)
		}
		trace = append(trace, "b-woke")
	})
	if err := k.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	want := []string{"a-start", "b-start", "a-slept", "b-woke"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
	if k.LiveFibers() != 0 {
		t.Fatalf("live fibers = %d, want 0", k.LiveFibers())
	}
}

func TestFiberAwaitFiredSignal(t *testing.T) {
	k := NewKernel(1)
	sig := NewSignal()
	sig.Fire(nil)
	done := false
	k.Spawn("a", func(f *Fiber) {
		if err := f.Await(sig); err != nil {
			t.Errorf("await: %v", err)
		}
		done = true
	})
	if err := k.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !done {
		t.Fatal("fiber did not complete on pre-fired signal")
	}
}

func TestFiberAwaitAllPropagatesError(t *testing.T) {
	k := NewKernel(1)
	s1, s2 := NewSignal(), NewSignal()
	var got error
	k.Spawn("w", func(f *Fiber) {
		got = f.AwaitAll(s1, s2)
	})
	k.After(Microsecond, func() { s1.Fire(nil) })
	k.After(2*Microsecond, func() { s2.Fire(ErrStopped) })
	if err := k.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got != ErrStopped {
		t.Fatalf("AwaitAll err = %v, want ErrStopped", got)
	}
}

func TestManyFibersDeterministic(t *testing.T) {
	run := func(seed uint64) []int {
		k := NewKernel(seed)
		var order []int
		for i := 0; i < 50; i++ {
			i := i
			k.Spawn("f", func(f *Fiber) {
				f.Sleep(Duration(k.RNG().Intn(1000)) * Microsecond)
				order = append(order, i)
			})
		}
		if err := k.Run(); err != nil {
			t.Fatalf("run: %v", err)
		}
		return order
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs with same seed diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(3)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exp(100)
	}
	mean := sum / n
	if mean < 95 || mean > 105 {
		t.Fatalf("Exp(100) sample mean = %v, want ≈100", mean)
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(13)
	p := r.Perm(100)
	seen := make(map[int]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestJitterBounds(t *testing.T) {
	r := NewRNG(17)
	for i := 0; i < 1000; i++ {
		d := r.Jitter(1000*Nanosecond, 0.1)
		if d < 900*Nanosecond || d > 1100*Nanosecond {
			t.Fatalf("jitter out of ±10%%: %v", d)
		}
	}
	if r.Jitter(Microsecond, 0) != Microsecond {
		t.Fatal("zero jitter changed value")
	}
}

func TestMutexExcludesAndIsFIFO(t *testing.T) {
	k := NewKernel(1)
	var mu Mutex
	var order []string
	hold := func(name string, start, dur Duration) {
		k.Spawn(name, func(f *Fiber) {
			f.Sleep(start)
			mu.Lock(f)
			order = append(order, name+"-in")
			f.Sleep(dur)
			order = append(order, name+"-out")
			mu.Unlock()
		})
	}
	hold("a", 0, 10*Microsecond)
	hold("b", 1*Microsecond, 5*Microsecond)
	hold("c", 2*Microsecond, 5*Microsecond)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a-in", "a-out", "b-in", "b-out", "c-in", "c-out"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v (critical sections interleaved or not FIFO)", order, want)
		}
	}
	if mu.Locked() {
		t.Fatal("mutex still held")
	}
}

func TestMutexUncontendedIsImmediate(t *testing.T) {
	k := NewKernel(1)
	var mu Mutex
	var at Time
	k.Spawn("solo", func(f *Fiber) {
		mu.Lock(f)
		at = f.Now()
		mu.Unlock()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 0 {
		t.Fatalf("uncontended lock took until %v", at)
	}
}

// refLess is the pre-packing two-field comparator: the ground truth the
// packed 128-bit key must reproduce bit-for-bit.
func refLess(aAt Time, aSeq uint64, bAt Time, bSeq uint64) bool {
	if aAt != bAt {
		return aAt < bAt
	}
	return aSeq < bSeq
}

// TestPackedKeyMatchesReference drives keyLess across a corpus of Time
// values straddling the int64 boundaries (where the sign-flip trick must
// hold) and seq values up to uint64 wraparound, comparing every ordered
// pair against the old two-field comparator.
func TestPackedKeyMatchesReference(t *testing.T) {
	times := []Time{
		math.MinInt64, math.MinInt64 + 1, -1e18, -4097, -1, 0, 1, 4096,
		1e18, math.MaxInt64 - 1, math.MaxInt64,
	}
	seqs := []uint64{0, 1, 2, 1 << 32, math.MaxUint64 - 1, math.MaxUint64}
	type key struct {
		at  Time
		seq uint64
	}
	var corpus []key
	for _, at := range times {
		for _, s := range seqs {
			corpus = append(corpus, key{at, s})
		}
	}
	rng := NewRNG(7)
	for i := 0; i < 500; i++ {
		corpus = append(corpus, key{Time(rng.Uint64()), rng.Uint64()})
	}
	for _, a := range corpus {
		for _, b := range corpus {
			got := keyLess(packHi(a.at), a.seq, packHi(b.at), b.seq)
			want := refLess(a.at, a.seq, b.at, b.seq)
			if got != want {
				t.Fatalf("keyLess((%d,%d),(%d,%d)) = %v, reference says %v",
					a.at, a.seq, b.at, b.seq, got, want)
			}
		}
	}
}

// TestTimerStopConcurrentWithFire pins the generation-check semantics the
// Timer.Stop doc promises: a Stop racing its own firing in virtual time —
// from the callback itself, or from a same-instant event after the struct
// was recycled — reports false and never cancels an innocent event.
func TestTimerStopConcurrentWithFire(t *testing.T) {
	k := NewKernel(1)
	var t1, t2 Timer
	var fromOwnCallback, stale bool
	innocentFired := false
	k.AfterFunc(10, func() {
		// Stop from the timer's own callback: the event has fired, and the
		// kernel bumped its generation (release) before calling us. Use a
		// copy so t1 keeps its — now stale — event pointer for the second
		// half of the test.
		h := t1
		fromOwnCallback = h.Stop()
		// Recycle the just-freed event struct for an innocent timer at the
		// same instant (the free list is LIFO, so t2 reuses t1's struct).
		k.AfterFunc(0, func() { innocentFired = true }, &t2)
		if t2.ev != t1.ev {
			t.Error("free list did not recycle the fired event struct; stale-handle case not exercised")
		}
		// The stale handle must not be able to cancel the recycled struct.
		stale = t1.Stop()
	}, &t1)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fromOwnCallback {
		t.Error("Stop from the timer's own callback returned true; want false (already fired)")
	}
	if stale {
		t.Error("Stop through a stale-generation handle returned true; want false")
	}
	if !innocentFired {
		t.Error("stale Stop cancelled the innocent recycled event")
	}
	// And the plain not-yet-fired case still reports true.
	var t3 Timer
	k.AfterFunc(5, func() { t.Error("cancelled event ran") }, &t3)
	if !t3.Stop() {
		t.Error("Stop before firing returned false; want true")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
