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

// record installs a drain handler on cq that appends every completion to
// the returned slice, oldest first.
func record(cq *CQ) *[]CQE {
	got := new([]CQE)
	cq.SetDrainHandler(func(batch []CQE) { *got = append(*got, batch...) })
	return got
}

func TestDrainHandlerConsumesEntries(t *testing.T) {
	_, cq := newTestCQ(t)
	got := record(cq)
	for i := uint64(0); i < 5; i++ {
		cq.push(CQE{WRID: i})
	}
	if len(*got) != 5 {
		t.Fatalf("handler saw %d CQEs, want 5", len(*got))
	}
	for i, e := range *got {
		if e.WRID != uint64(i) {
			t.Fatalf("got[%d] = %d, want %d (order broken)", i, e.WRID, i)
		}
	}
	if cq.Total() != 5 {
		t.Fatalf("Total = %d, want 5", cq.Total())
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

// TestDiscardCountsWithoutRetaining: a CQ with no drain handler counts
// its completions and keeps none; a handler installed later sees only what
// is pushed after it.
func TestDiscardCountsWithoutRetaining(t *testing.T) {
	_, cq := newTestCQ(t)
	for i := 0; i < 100; i++ {
		cq.push(CQE{WRID: uint64(i)})
	}
	if cq.Total() != 100 {
		t.Fatalf("Total = %d, want 100", cq.Total())
	}
	got := record(cq)
	cq.push(CQE{WRID: 100})
	if len(*got) != 1 || (*got)[0].WRID != 100 || cq.Total() != 101 {
		t.Fatalf("handler installed after 100 pushes saw %v (total %d), want only WRID 100", *got, cq.Total())
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
