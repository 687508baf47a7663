package rdma

import (
	"testing"

	"hyperloop/internal/nvm"
	"hyperloop/internal/sim"
)

// TestWaitAbsoluteThreshold verifies the absolute-threshold WAIT mode:
// several queues gate on the same CQ without consuming completions.
func TestWaitAbsoluteThreshold(t *testing.T) {
	p := newTestPair(t)
	// Two independent WAIT_ABS gates on qa's send CQ, each followed by a
	// NOP; both must fire once two signaled NOPs complete.
	nb := p.nb
	gate1, err := nb.CreateQP(QPConfig{SendRingOff: 2048, SendSlots: 4, SendCQ: nb.CreateCQ(), RecvCQ: nb.CreateCQ()})
	if err != nil {
		t.Fatal(err)
	}
	gate2, err := nb.CreateQP(QPConfig{SendRingOff: 2048 + 4*WQESize, SendSlots: 4, SendCQ: nb.CreateCQ(), RecvCQ: nb.CreateCQ()})
	if err != nil {
		t.Fatal(err)
	}
	src, err := nb.CreateQP(QPConfig{SendRingOff: 2048 + 8*WQESize, SendSlots: 4, SendCQ: nb.CreateCQ(), RecvCQ: nb.CreateCQ()})
	if err != nil {
		t.Fatal(err)
	}
	srcCQ := src.SendCQ()
	for _, gate := range []*QP{gate1, gate2} {
		if _, err := gate.PostSend(WQE{
			Opcode: OpWait, Flags: FlagWaitAbs, Compare: 2, Aux1: srcCQ.CQN(), WRID: 1,
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := gate.PostSend(WQE{Opcode: OpNop, Flags: FlagSignaled, WRID: 2}); err != nil {
			t.Fatal(err)
		}
	}
	// One completion: gates must not fire.
	if _, err := src.PostSend(WQE{Opcode: OpNop, Flags: FlagSignaled}); err != nil {
		t.Fatal(err)
	}
	p.run(t)
	if gate1.SendCQ().Total() != 0 || gate2.SendCQ().Total() != 0 {
		t.Fatal("WAIT_ABS fired below threshold")
	}
	// Second completion: both gates fire.
	if _, err := src.PostSend(WQE{Opcode: OpNop, Flags: FlagSignaled}); err != nil {
		t.Fatal(err)
	}
	p.run(t)
	if gate1.SendCQ().Total() != 1 || gate2.SendCQ().Total() != 1 {
		t.Fatalf("WAIT_ABS gates = %d, %d completions, want 1 each",
			gate1.SendCQ().Total(), gate2.SendCQ().Total())
	}
	// Absolute waits must not consume: a consuming WAIT after them still
	// sees both completions.
	if srcCQ.Total() != 2 {
		t.Fatalf("source CQ total = %d", srcCQ.Total())
	}
}

// TestRandomProgramsNeverCorrupt runs randomized WQE programs and checks
// the engine neither panics nor writes outside registered windows, and
// every signaled op eventually completes or the queue stalls cleanly.
func TestRandomProgramsNeverCorrupt(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		k := sim.NewKernel(seed)
		rng := sim.NewRNG(seed * 977)
		fab := NewFabric(k, DefaultConfig())
		da := nvm.NewDevice("a", memSize)
		db := nvm.NewDevice("b", memSize)
		na, _ := fab.AddNIC("a", da)
		nb, _ := fab.AddNIC("b", db)
		// Register only a window of b; accesses outside must error, never
		// write.
		const winLo, winLen = 8192, 4096
		mrb, _ := nb.RegisterMR(winLo, winLen, AccessRemoteWrite|AccessRemoteRead|AccessRemoteAtomic)
		qa, _ := na.CreateQP(QPConfig{SendRingOff: 0, SendSlots: 64, SendCQ: na.CreateCQ(), RecvCQ: na.CreateCQ()})
		qb, _ := nb.CreateQP(QPConfig{SendRingOff: 0, SendSlots: 64, SendCQ: nb.CreateCQ(), RecvCQ: nb.CreateCQ()})
		qa.Connect(qb)
		// Enough receives that SENDs never block the inbox on RNR (a
		// legitimate stall, but not what this test probes).
		for i := 0; i < 48; i++ {
			qb.PostRecv(RecvWQE{SGEs: []SGE{{Addr: winLo, Len: 256}}})
		}

		posted := 0
		for i := 0; i < 40; i++ {
			op := []Opcode{OpWrite, OpSend, OpCAS, OpNop, OpFlush}[rng.Intn(5)]
			addr := uint64(rng.Intn(memSize))
			length := uint64(rng.Intn(512))
			w := WQE{
				Opcode: op, Flags: FlagSignaled, WRID: uint64(i),
				Local: uint64(4096 + rng.Intn(1024)), Len: length,
				Remote: addr, Aux1: mrb.RKey,
			}
			if op == OpCAS {
				w.Len = 8
			}
			if _, err := qa.PostSend(w); err != nil {
				break
			}
			posted++
		}
		if err := k.RunUntil(k.Now().Add(10 * sim.Second)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Every posted signaled op must have completed (success or error).
		if got := qa.SendCQ().Total(); got != int64(posted) {
			t.Fatalf("seed %d: %d/%d completions", seed, got, posted)
		}
		// Nothing outside the registered window on b may be dirty or
		// nonzero (except the recv scatter area inside the window).
		img := make([]byte, memSize)
		_ = db.Read(0, img)
		for off, v := range img {
			if v != 0 && (off < winLo || off >= winLo+winLen) {
				t.Fatalf("seed %d: byte outside MR window written at %d", seed, off)
			}
		}
	}
}

// TestCQHandlerAndWaitCoexist checks a drain handler and WAIT
// subscriptions on the same CQ both fire.
func TestCQHandlerAndWaitCoexist(t *testing.T) {
	p := newTestPair(t)
	var handlerFired int
	p.qa.SendCQ().SetDrainHandler(func(es []CQE) { handlerFired += len(es) })
	waiter, err := p.na.CreateQP(QPConfig{SendRingOff: 2048, SendSlots: 4, SendCQ: p.na.CreateCQ(), RecvCQ: p.na.CreateCQ()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := waiter.PostSend(WQE{Opcode: OpWait, Imm: 1, Aux1: p.qa.SendCQ().CQN(), Aux2: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := waiter.PostSendDeferred(WQE{Opcode: OpNop, Flags: FlagSignaled, WRID: 99}); err != nil {
		t.Fatal(err)
	}
	waiter.Doorbell()
	if _, err := p.qa.PostSend(WQE{Opcode: OpNop, Flags: FlagSignaled}); err != nil {
		t.Fatal(err)
	}
	p.run(t)
	if handlerFired != 1 {
		t.Fatalf("handler fired %d times", handlerFired)
	}
	if waiter.SendCQ().Total() != 1 {
		t.Fatal("WAIT-gated NOP did not fire alongside the handler")
	}
}

// TestParkedWaitDoesNotAllocate: a WAIT that finds its CQ short parks the
// queue's cached doorbell callback with the CQ and is woken through it —
// the offloaded datapath does this once per chain hop, so it must not cost
// an allocation (a method value bound per park did).
func TestParkedWaitDoesNotAllocate(t *testing.T) {
	p := newTestPair(t)
	src := p.qa.SendCQ()
	waiter, err := p.na.CreateQP(QPConfig{SendRingOff: 2048, SendSlots: 4, SendCQ: p.na.CreateCQ(), RecvCQ: p.na.CreateCQ()})
	if err != nil {
		t.Fatal(err)
	}
	cycle := func() {
		if _, err := waiter.PostSend(WQE{Opcode: OpWait, Imm: 1, Aux1: src.CQN(), Aux2: 1}); err != nil {
			t.Fatal(err)
		}
		if _, err := waiter.PostSendDeferred(WQE{Opcode: OpNop, Flags: FlagSignaled}); err != nil {
			t.Fatal(err)
		}
		waiter.Doorbell()
		p.run(t) // the WAIT executes, finds nothing to consume, parks
		if _, err := p.qa.PostSend(WQE{Opcode: OpNop, Flags: FlagSignaled}); err != nil {
			t.Fatal(err)
		}
		p.run(t) // the NOP completes, the CQ rings the parked queue, the gated NOP runs
	}
	allocs := testing.AllocsPerRun(200, cycle) // one warm-up call, then 200
	if woken := waiter.SendCQ().Total(); woken != 201 {
		t.Fatalf("%d of 201 parked WAITs were woken", woken)
	}
	if allocs != 0 {
		t.Fatalf("a parked-then-woken WAIT costs %v allocations, want 0", allocs)
	}
}
