package rdma

import (
	"testing"

	"hyperloop/internal/nvm"
	"hyperloop/internal/sim"
)

// newTestCQ builds a CQ on a standalone NIC so push can be driven directly.
func newTestCQ(t testing.TB) (*sim.Kernel, *CQ) {
	t.Helper()
	k := sim.NewKernel(1)
	fab := NewFabric(k, DefaultConfig())
	nic, err := fab.AddNIC("cqhost", nvm.NewDevice("cqhost", 4096))
	if err != nil {
		t.Fatal(err)
	}
	return k, nic.CreateCQ()
}

func TestDrainHandlerConsumesEntries(t *testing.T) {
	_, cq := newTestCQ(t)
	var got []uint64
	cq.SetDrainHandler(func(batch []CQE) {
		for _, e := range batch {
			got = append(got, e.WRID)
		}
	})
	for i := uint64(0); i < 5; i++ {
		cq.push(CQE{WRID: i})
	}
	if len(got) != 5 {
		t.Fatalf("handler saw %d CQEs, want 5", len(got))
	}
	for i, w := range got {
		if w != uint64(i) {
			t.Fatalf("got[%d] = %d, want %d (order broken)", i, w, i)
		}
	}
	if cq.Depth() != 0 {
		t.Fatalf("Depth = %d after drain, want 0 (entries must be consumed)", cq.Depth())
	}
	if cq.Poll(10) != nil {
		t.Fatal("Poll returned entries on a drain-handler CQ")
	}
	if cq.Total() != 5 {
		t.Fatalf("Total = %d, want 5", cq.Total())
	}
}

func TestDrainHandlerMigratesBacklog(t *testing.T) {
	_, cq := newTestCQ(t)
	// Completions before any handler accumulate for Poll...
	cq.push(CQE{WRID: 1})
	cq.push(CQE{WRID: 2})
	if cq.Depth() != 2 {
		t.Fatalf("Depth = %d, want 2", cq.Depth())
	}
	// ...and the drain handler receives that backlog with the next push.
	var got []uint64
	cq.SetDrainHandler(func(batch []CQE) {
		for _, e := range batch {
			got = append(got, e.WRID)
		}
	})
	cq.push(CQE{WRID: 3})
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got %v, want [1 2 3]", got)
	}
	if cq.Depth() != 0 {
		t.Fatalf("Depth = %d, want 0", cq.Depth())
	}
}

// TestDrainHandlerReentrantPushFoldsIntoFollowUpBatch: a push performed
// inside the handler must not recurse into the handler; it is delivered as
// a second batch of the same drain loop.
func TestDrainHandlerReentrantPushFoldsIntoFollowUpBatch(t *testing.T) {
	_, cq := newTestCQ(t)
	depth, maxDepth := 0, 0
	var batches [][]uint64
	cq.SetDrainHandler(func(batch []CQE) {
		depth++
		if depth > maxDepth {
			maxDepth = depth
		}
		var ids []uint64
		for _, e := range batch {
			ids = append(ids, e.WRID)
		}
		batches = append(batches, ids)
		if batch[0].WRID == 1 {
			cq.push(CQE{WRID: 2}) // re-entrant push from handler context
		}
		depth--
	})
	cq.push(CQE{WRID: 1})
	if maxDepth != 1 {
		t.Fatalf("handler nested to depth %d, want 1", maxDepth)
	}
	if len(batches) != 2 || batches[0][0] != 1 || batches[1][0] != 2 {
		t.Fatalf("batches = %v, want [[1] [2]]", batches)
	}
}

func TestPollReturnsRetainedEntriesInOrder(t *testing.T) {
	_, cq := newTestCQ(t)
	cq.push(CQE{WRID: 7})
	cq.push(CQE{WRID: 8})
	if cq.Depth() != 2 {
		t.Fatalf("Depth = %d, want 2 (no drain handler: entries are retained)", cq.Depth())
	}
	got := cq.Poll(10)
	if len(got) != 2 || got[0].WRID != 7 || got[1].WRID != 8 {
		t.Fatalf("Poll = %v, want WRIDs [7 8]", got)
	}
	if cq.Depth() != 0 || cq.Poll(10) != nil {
		t.Fatal("Poll did not consume the entries")
	}
}

func TestDiscardCountsWithoutRetaining(t *testing.T) {
	_, cq := newTestCQ(t)
	cq.Discard()
	for i := 0; i < 100; i++ {
		cq.push(CQE{WRID: uint64(i)})
	}
	if cq.Total() != 100 {
		t.Fatalf("Total = %d, want 100", cq.Total())
	}
	if cq.Depth() != 0 || cq.Poll(10) != nil {
		t.Fatal("Discard CQ retained entries")
	}
}

// TestSubscribeThreshold: a waiter with minTotal fires exactly when the
// cumulative count reaches it — not on every push.
func TestSubscribeThreshold(t *testing.T) {
	_, cq := newTestCQ(t)
	fired := 0
	cq.subscribe(func() { fired++ }, 3)
	cq.push(CQE{})
	cq.push(CQE{})
	if fired != 0 {
		t.Fatalf("waiter fired at total=%d, want to wait for 3", cq.Total())
	}
	cq.push(CQE{})
	if fired != 1 {
		t.Fatalf("fired = %d at total=3, want 1", fired)
	}
	cq.push(CQE{})
	if fired != 1 {
		t.Fatalf("fired = %d after total=4, want 1 (waiter is one-shot)", fired)
	}
}

func TestSubscribeThresholdOrderAmongSurvivors(t *testing.T) {
	_, cq := newTestCQ(t)
	var order []int
	cq.subscribe(func() { order = append(order, 1) }, 2)
	cq.subscribe(func() { order = append(order, 2) }, 1)
	cq.subscribe(func() { order = append(order, 3) }, 2)
	cq.push(CQE{})
	if len(order) != 1 || order[0] != 2 {
		t.Fatalf("order = %v after 1 push, want [2]", order)
	}
	cq.push(CQE{})
	if len(order) != 3 || order[1] != 1 || order[2] != 3 {
		t.Fatalf("order = %v, want [2 1 3] (subscription order among same-threshold waiters)", order)
	}
}

// BenchmarkCQDrain measures the per-completion cost of the batched drain
// path.
func BenchmarkCQDrain(b *testing.B) {
	_, cq := newTestCQ(b)
	n := 0
	cq.SetDrainHandler(func(batch []CQE) { n += len(batch) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cq.push(CQE{WRID: uint64(i)})
	}
	if n != b.N {
		b.Fatalf("drained %d, want %d", n, b.N)
	}
}

func BenchmarkCQPoll(b *testing.B) {
	_, cq := newTestCQ(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cq.push(CQE{WRID: uint64(i)})
		if cq.Depth() >= 64 {
			cq.Poll(64)
		}
	}
}
