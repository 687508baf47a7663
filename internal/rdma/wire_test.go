package rdma

import (
	"runtime"
	"testing"

	"hyperloop/internal/sim"
)

// poolStock is what a fabric's pools held before a run: stocked up front,
// a pool that never misses makes nothing, so after the run it must hold
// exactly these again.
type poolStock struct {
	wires map[*wireMsg]bool
	bufs  map[*byte]bool
}

// stockPools fills f's pools with n wire messages and n payload buffers of
// every size class up to 2 KiB, more than a run below ever has in flight.
func stockPools(f *Fabric, n int) poolStock {
	wms := make([]*wireMsg, n)
	for i := range wms {
		wms[i] = f.getWire()
	}
	for _, wm := range wms {
		f.putWire(wm)
	}
	bs := make([][]byte, n)
	for c := 0; c <= 11; c++ {
		for i := range bs {
			bs[i] = f.getBuf(1 << c)
		}
		for _, b := range bs {
			f.putBuf(b)
		}
	}
	s := poolStock{wires: make(map[*wireMsg]bool), bufs: make(map[*byte]bool)}
	for _, wm := range f.wireFree {
		s.wires[wm] = true
	}
	for _, class := range f.bufs.classes {
		for _, b := range class {
			s.bufs[&b[:1][0]] = true
		}
	}
	return s
}

// checkPools fails unless the quiet fabric f holds exactly the wire
// messages and payload buffers of its stock, each once: one missing was
// leaked, one present twice was returned twice and would be handed to two
// users, and one not in the stock was made on a miss.
func checkPools(t *testing.T, f *Fabric, s poolStock) {
	t.Helper()
	seen := make(map[*wireMsg]bool)
	for _, wm := range f.wireFree {
		switch {
		case seen[wm]:
			t.Fatal("a wire message is in the pool twice")
		case !s.wires[wm]:
			t.Fatal("the pool made a wire message: raise the stock")
		}
		seen[wm] = true
	}
	if len(seen) != len(s.wires) {
		t.Fatalf("%d of the %d wire messages stocked are back in the pool", len(seen), len(s.wires))
	}
	bufs := make(map[*byte]bool)
	for _, class := range f.bufs.classes {
		for _, b := range class {
			p := &b[:1][0]
			switch {
			case bufs[p]:
				t.Fatalf("a %d-byte payload buffer is in the pool twice", cap(b))
			case !s.bufs[p]:
				t.Fatalf("the pool made a %d-byte payload buffer: raise the stock", cap(b))
			}
			bufs[p] = true
		}
	}
	if len(bufs) != len(s.bufs) {
		t.Fatalf("%d of the %d payload buffers stocked are back in the pool", len(bufs), len(s.bufs))
	}
}

// TestWireMessagesReturnOnce: every wire message taken from the fabric's
// pool, and every payload it carried, comes back exactly once on each
// path a message can end on.
func TestWireMessagesReturnOnce(t *testing.T) {
	t.Run("drops and duplicates", func(t *testing.T) {
		p := newFaultPair(t, 7)
		stock := stockPools(p.fab, 256)
		mustInstall(t, p.fab, &FaultPlan{Links: []LinkFault{
			{From: "a", To: "b", DropProb: 0.3, DupProb: 0.3},
			{From: "b", To: "a", DropProb: 0.3, DupProb: 0.3},
		}})
		var done int
		p.qa.SendCQ().SetDrainHandler(func(es []CQE) { done += len(es) })
		const ops = 300
		for i := 0; i < ops; i++ {
			p.qb.PostRecv(RecvWQE{WRID: uint64(i)})
		}
		p.k.Spawn("client", func(f *sim.Fiber) {
			for i := 0; i < ops; i++ {
				w := WQE{Flags: FlagSignaled, WRID: uint64(i), Local: bufA, Remote: bufB, Aux1: p.mrb.RKey}
				switch i % 3 {
				case 0:
					w.Opcode, w.Len = OpWrite, 1024
				case 1:
					w.Opcode, w.Len = OpWriteImm, 64
				case 2:
					w.Opcode, w.Len, w.Compare, w.Swap = OpCAS, 8, uint64(i), uint64(i+1)
				}
				if _, err := p.qa.PostSend(w); err != nil {
					t.Error(err)
					return
				}
				f.Sleep(2 * sim.Microsecond)
			}
		})
		p.run(t)
		fs := p.fab.FaultStats()
		if done != ops || fs.Drops == 0 || fs.Dups == 0 || fs.DupsSuppressed == 0 {
			t.Fatalf("%d of %d ops completed, faults %+v: want all, with drops and suppressed dups", done, ops, fs)
		}
		checkPools(t, p.fab, stock)
	})

	t.Run("receiver down in flight", func(t *testing.T) {
		p := newFaultPair(t, 1)
		stock := stockPools(p.fab, 256)
		mustInstall(t, p.fab, &FaultPlan{NICs: []NICFault{
			{Host: "b", At: sim.Time(20 * sim.Microsecond), Down: true},
			{Host: "b", At: sim.Time(60 * sim.Microsecond), Down: false},
		}})
		var ok, failed int
		p.qa.SendCQ().SetDrainHandler(func(es []CQE) {
			for _, e := range es {
				if e.Status == StatusSuccess {
					ok++
				} else {
					failed++
				}
			}
		})
		p.k.Spawn("client", func(f *sim.Fiber) {
			for i := 0; i < 100; i++ {
				if _, err := p.qa.PostSend(WQE{
					Opcode: OpWrite, Flags: FlagSignaled, WRID: uint64(i),
					Local: bufA, Len: 512, Remote: bufB, Aux1: p.mrb.RKey,
				}); err != nil {
					t.Error(err)
					return
				}
				f.Sleep(sim.Microsecond)
			}
		})
		p.run(t)
		if ok == 0 || failed == 0 || p.fab.FaultStats().Drops == 0 {
			t.Fatalf("ok %d, failed %d, faults %+v: want both, with drops", ok, failed, p.fab.FaultStats())
		}
		checkPools(t, p.fab, stock)
	})

	// SENDs with no receive posted block b's inbox (RNR), so they are
	// still queued there when the QP goes.
	queueSends := func(t *testing.T, p *testPair, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := p.qa.PostSend(WQE{
				Opcode: OpSend, Flags: FlagSignaled, WRID: uint64(i), Local: bufA, Len: 256,
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.k.RunUntil(sim.Time(30 * sim.Microsecond)); err != nil {
			t.Fatal(err)
		}
		if got := p.qb.inbox.Len(); got != n {
			t.Fatalf("b's inbox holds %d messages, want the %d SENDs", got, n)
		}
	}

	t.Run("QP destroyed with its inbox queued", func(t *testing.T) {
		p := newFaultPair(t, 1)
		stock := stockPools(p.fab, 256)
		queueSends(t, p, 8)
		p.qb.Destroy()
		p.run(t)
		checkPools(t, p.fab, stock)
	})

	t.Run("NIC down and up with its inbox queued", func(t *testing.T) {
		p := newFaultPair(t, 1)
		stock := stockPools(p.fab, 256)
		var ok int
		p.qa.SendCQ().SetDrainHandler(func(es []CQE) {
			for _, e := range es {
				if e.Status == StatusSuccess {
					ok++
				}
			}
		})
		queueSends(t, p, 8)
		p.nb.SetDown(true)
		for i := 0; i < 8; i++ {
			p.qb.PostRecv(RecvWQE{WRID: uint64(i), SGEs: []SGE{{Addr: bufB, Len: 256}}})
		}
		if err := p.k.RunUntil(sim.Time(50 * sim.Microsecond)); err != nil {
			t.Fatal(err)
		}
		if got := p.qb.inbox.Len(); got != 8 {
			t.Fatalf("down NIC's inbox holds %d messages, want 8", got)
		}
		p.nb.SetDown(false)
		p.run(t)
		if ok != 8 {
			t.Fatalf("%d of 8 SENDs completed after the NIC came back", ok)
		}
		checkPools(t, p.fab, stock)
	})
}

// TestDroppedMessagesReturnPayloads: a message lost on the wire returns
// its payload buffer to the pool, so a lossy link costs no allocation per
// drop. It counts mallocs rather than using testing.AllocsPerRun, whose
// integer mean hides less than one allocation per run.
func TestDroppedMessagesReturnPayloads(t *testing.T) {
	p := newFaultPair(t, 1)
	mustInstall(t, p.fab, &FaultPlan{Links: []LinkFault{{From: "a", To: "b", DropProb: 0.25}}})
	// Each completion posts the next 1 KiB write, until target.
	var posted, target int
	post := func() {
		if posted == target {
			return
		}
		if _, err := p.qa.PostSend(WQE{
			Opcode: OpWrite, Flags: FlagSignaled, WRID: uint64(posted),
			Local: bufA, Len: 1024, Remote: bufB, Aux1: p.mrb.RKey,
		}); err != nil {
			t.Error(err)
			return
		}
		posted++
	}
	p.qa.SendCQ().SetDrainHandler(func(es []CQE) {
		for range es {
			post()
		}
	})
	target = 200
	post()
	p.run(t)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	drops := p.fab.FaultStats().Drops
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	target = 1000
	post()
	err := p.k.Run()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	drops = p.fab.FaultStats().Drops - drops
	if posted != target || drops < 100 {
		t.Fatalf("posted %d writes with %d drops, want %d with at least 100", posted, drops, target)
	}
	if n := after.Mallocs - before.Mallocs; n*10 > uint64(drops) {
		t.Fatalf("%d mallocs over %d writes with %d drops, want none per drop", n, target-200, drops)
	}
}
