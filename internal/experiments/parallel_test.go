package experiments

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestForEachRunsAllIndices checks every index runs exactly once and that
// trials returns result i at index i, even when later trials finish first.
func TestForEachRunsAllIndices(t *testing.T) {
	prev := SetParallelism(4)
	defer SetParallelism(prev)
	const n = 100
	counts := make([]int32, n)
	got, err := trials(nil, n, func(i int, ar *trialArena) (int, error) {
		atomic.AddInt32(&counts[i], 1)
		time.Sleep(time.Duration(n-i) * 10 * time.Microsecond) // lower indices finish later
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
	if len(got) != n {
		t.Fatalf("got %d results, want %d", len(got), n)
	}
	for i, r := range got {
		if r != i {
			t.Fatalf("result at index %d = %d, want %d", i, r, i)
		}
	}
}

// TestForEachFirstErrorByIndex checks the reported error is the one at the
// lowest index, matching what a serial loop would surface, regardless of
// which worker finishes first.
func TestForEachFirstErrorByIndex(t *testing.T) {
	prev := SetParallelism(8)
	defer SetParallelism(prev)
	errLow := errors.New("low")
	errHigh := errors.New("high")
	for trial := 0; trial < 20; trial++ {
		_, err := trials(nil, 16, func(i int, ar *trialArena) (int, error) {
			switch i {
			case 3:
				time.Sleep(time.Millisecond) // lowest-index failure finishes last
				return i, errLow
			case 11:
				return i, errHigh
			}
			return i, nil
		})
		if err != errLow {
			t.Fatalf("trial %d: err = %v, want %v", trial, err, errLow)
		}
	}
}

// TestForEachBoundsWorkers checks concurrency never exceeds SetParallelism.
func TestForEachBoundsWorkers(t *testing.T) {
	prev := SetParallelism(3)
	defer SetParallelism(prev)
	var cur, max int32
	var mu sync.Mutex
	if _, err := trials(nil, 30, func(i int, ar *trialArena) (int, error) {
		c := atomic.AddInt32(&cur, 1)
		mu.Lock()
		if c > max {
			max = c
		}
		mu.Unlock()
		time.Sleep(time.Millisecond)
		atomic.AddInt32(&cur, -1)
		return i, nil
	}); err != nil {
		t.Fatal(err)
	}
	if max > 3 {
		t.Fatalf("observed %d concurrent trials, want <= 3", max)
	}
}

// TestForEachSerialShortCircuits checks the serial fast path stops at the
// first failure instead of running the remaining trials.
func TestForEachSerialShortCircuits(t *testing.T) {
	prev := SetParallelism(1)
	defer SetParallelism(prev)
	ran := 0
	boom := errors.New("boom")
	_, err := trials(nil, 10, func(i int, ar *trialArena) (int, error) {
		ran++
		if i == 2 {
			return i, boom
		}
		return i, nil
	})
	if err != boom {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if ran != 3 {
		t.Fatalf("ran = %d trials, want 3", ran)
	}
}

// TestSerialParallelIdentical is the golden test for the tentpole: every
// registered experiment must render a byte-identical Report whether trials
// run serially or on a parallel worker pool. Virtual time is computed per
// private kernel, so host-side scheduling must never leak into results.
func TestSerialParallelIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice")
	}
	prev := Parallelism()
	defer SetParallelism(prev)
	const seed = 42
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			SetParallelism(1)
			serial, err := Run(name, seed, Quick)
			if err != nil {
				t.Fatalf("serial: %v", err)
			}
			SetParallelism(8)
			parallel, err := Run(name, seed, Quick)
			if err != nil {
				t.Fatalf("parallel: %v", err)
			}
			if !reflect.DeepEqual(serial, parallel) {
				t.Errorf("report differs between serial and parallel runs:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
			}
		})
	}
}
