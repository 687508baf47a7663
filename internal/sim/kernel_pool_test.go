package sim

import (
	"sort"
	"testing"
)

// TestNestedRunUntilPropagatesStop is the regression test for the stop-flag
// reset: a StopRun issued before (or during) a nested RunUntil must not be
// swallowed by the nested call resetting k.stopped, and must propagate to
// the outer Run.
func TestNestedRunUntilPropagatesStop(t *testing.T) {
	k := NewKernel(1)
	var nestedErr error
	afterStop := false
	k.After(Microsecond, func() {
		k.StopRun()
		// Nested drive of the kernel from inside an event callback: the
		// pending stop must hold, so the nested run executes nothing.
		nestedErr = k.RunUntil(k.Now().Add(Millisecond))
	})
	k.After(2*Microsecond, func() { afterStop = true })
	if err := k.Run(); err != ErrStopped {
		t.Fatalf("outer Run err = %v, want ErrStopped", err)
	}
	if nestedErr != ErrStopped {
		t.Fatalf("nested RunUntil err = %v, want ErrStopped", nestedErr)
	}
	if afterStop {
		t.Fatal("event after StopRun fired: nested RunUntil swallowed the stop")
	}
	// A fresh top-level Run clears the stop flag and drains the queue.
	if err := k.Run(); err != nil {
		t.Fatalf("rerun: %v", err)
	}
	if !afterStop {
		t.Fatal("queued event lost across stop/rerun")
	}
}

// TestStopDuringNestedRunUntil stops the kernel from an event executed by a
// nested RunUntil and checks both levels observe it.
func TestStopDuringNestedRunUntil(t *testing.T) {
	k := NewKernel(1)
	var nestedErr error
	outerRan := false
	k.After(Microsecond, func() {
		k.After(2*Microsecond, k.StopRun)
		nestedErr = k.RunUntil(k.Now().Add(Millisecond))
	})
	k.After(10*Microsecond, func() { outerRan = true })
	if err := k.Run(); err != ErrStopped {
		t.Fatalf("outer Run err = %v, want ErrStopped", err)
	}
	if nestedErr != ErrStopped {
		t.Fatalf("nested RunUntil err = %v, want ErrStopped", nestedErr)
	}
	if outerRan {
		t.Fatal("outer Run continued past a stop raised in nested RunUntil")
	}
}

// TestAfterFuncReusesTimer re-arms one Timer handle repeatedly and checks
// the chain fires in order with Stop working at every incarnation.
func TestAfterFuncReusesTimer(t *testing.T) {
	k := NewKernel(1)
	var tm Timer
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < 100 {
			k.AfterFunc(Microsecond, tick, &tm)
		}
	}
	k.AfterFunc(Microsecond, tick, &tm)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("ticks = %d, want 100", n)
	}
	// Re-arm then cancel: the callback must not fire.
	k.AfterFunc(Microsecond, tick, &tm)
	if !tm.Stop() {
		t.Fatal("Stop on armed reused timer returned false")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("cancelled reused timer fired: ticks = %d", n)
	}
}

// TestAfterFuncReplacesPending arms a timer that is still pending and
// checks the first callback is cancelled, not duplicated.
func TestAfterFuncReplacesPending(t *testing.T) {
	k := NewKernel(1)
	var tm Timer
	var fired []string
	k.AfterFunc(5*Microsecond, func() { fired = append(fired, "first") }, &tm)
	k.AfterFunc(Microsecond, func() { fired = append(fired, "second") }, &tm)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || fired[0] != "second" {
		t.Fatalf("fired = %v, want [second]", fired)
	}
}

// TestStaleTimerCannotCancelRecycledEvent guards the free-list: a Timer
// whose event fired must not cancel a later event that recycled the same
// struct.
func TestStaleTimerCannotCancelRecycledEvent(t *testing.T) {
	k := NewKernel(1)
	first := k.After(Microsecond, func() {})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// The next scheduled event recycles the fired event's struct.
	fired := false
	k.After(Microsecond, func() { fired = true })
	if first.Stop() {
		t.Fatal("stale Stop reported success")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("stale Timer.Stop cancelled a recycled event")
	}
}

// TestHeapRandomizedOrdering cross-checks the hand-rolled event heap
// against a reference sort under random scheduling and cancellation.
func TestHeapRandomizedOrdering(t *testing.T) {
	rng := NewRNG(99)
	for trial := 0; trial < 50; trial++ {
		k := NewKernel(uint64(trial))
		type ref struct {
			at  Time
			id  int
			tm  *Timer
			cut bool
		}
		var refs []*ref
		var fired []int
		const n = 200
		for i := 0; i < n; i++ {
			r := &ref{at: Time(rng.Intn(50)) * Time(Microsecond), id: i}
			r.tm = k.At(r.at, func() { fired = append(fired, r.id) })
			refs = append(refs, r)
		}
		// Cancel a random third.
		for _, r := range refs {
			if rng.Intn(3) == 0 {
				r.cut = true
				if !r.tm.Stop() {
					t.Fatalf("trial %d: Stop failed on pending event %d", trial, r.id)
				}
			}
		}
		if err := k.Run(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var want []int
		kept := make([]*ref, 0, n)
		for _, r := range refs {
			if !r.cut {
				kept = append(kept, r)
			}
		}
		sort.SliceStable(kept, func(i, j int) bool { return kept[i].at < kept[j].at })
		for _, r := range kept {
			want = append(want, r.id)
		}
		if len(fired) != len(want) {
			t.Fatalf("trial %d: fired %d events, want %d", trial, len(fired), len(want))
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("trial %d: order[%d] = %d, want %d", trial, i, fired[i], want[i])
			}
		}
	}
}

// TestExecutedCounter checks per-kernel event accounting, which the
// experiment arenas' per-trial attribution relies on.
func TestExecutedCounter(t *testing.T) {
	k := NewKernel(1)
	for i := 0; i < 10; i++ {
		k.After(Duration(i)*Microsecond, func() {})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Executed() != 10 {
		t.Fatalf("Executed = %d, want 10", k.Executed())
	}
}
