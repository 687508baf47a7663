package rdma

import (
	"fmt"
	"strings"
	"testing"

	"hyperloop/internal/nvm"
	"hyperloop/internal/sim"
)

// newFaultPair is newTestPair with a caller-chosen seed, for fault tests
// that want specific RNG streams.
func newFaultPair(t *testing.T, seed uint64) *testPair {
	t.Helper()
	k := sim.NewKernel(seed)
	fab := NewFabric(k, DefaultConfig())
	na, err := fab.AddNIC("a", nvm.NewDevice("a", memSize))
	if err != nil {
		t.Fatal(err)
	}
	nb, err := fab.AddNIC("b", nvm.NewDevice("b", memSize))
	if err != nil {
		t.Fatal(err)
	}
	all := AccessLocalWrite | AccessRemoteRead | AccessRemoteWrite | AccessRemoteAtomic
	mra, err := na.RegisterMR(0, memSize, all)
	if err != nil {
		t.Fatal(err)
	}
	mrb, err := nb.RegisterMR(0, memSize, all)
	if err != nil {
		t.Fatal(err)
	}
	qa, err := na.CreateQP(QPConfig{SendRingOff: ringOff, SendSlots: ringSlots, SendCQ: na.CreateCQ(), RecvCQ: na.CreateCQ()})
	if err != nil {
		t.Fatal(err)
	}
	qb, err := nb.CreateQP(QPConfig{SendRingOff: ringOff, SendSlots: ringSlots, SendCQ: nb.CreateCQ(), RecvCQ: nb.CreateCQ()})
	if err != nil {
		t.Fatal(err)
	}
	qa.Connect(qb)
	return &testPair{k: k, fab: fab, na: na, nb: nb, qa: qa, qb: qb, mra: mra, mrb: mrb}
}

func postWrite(t *testing.T, p *testPair, wrid uint64) {
	t.Helper()
	if _, err := p.qa.PostSend(WQE{
		Opcode: OpWrite, Flags: FlagSignaled, WRID: wrid,
		Local: bufA, Len: 1, Remote: bufB, Aux1: p.mrb.RKey,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestSetDownMidOperationUnblocksClient is the regression test for the
// silent-drop hang: a client fiber blocked on a completion whose target
// NIC died mid-flight must unblock with an error CQE, never hang.
func TestSetDownMidOperationUnblocksClient(t *testing.T) {
	p := newTestPair(t)
	done := sim.NewSignal()
	var st Status
	p.qa.SendCQ().SetDrainHandler(func(es []CQE) {
		for _, e := range es {
			st = e.Status
			done.Fire(nil)
		}
	})
	p.k.Spawn("client", func(f *sim.Fiber) {
		_ = p.na.Memory().Write(bufA, []byte{7})
		postWrite(t, p, 1)
		if err := f.Await(done); err != nil {
			t.Errorf("await: %v", err)
		}
	})
	// Crash the target while the WRITE is on the wire (PropDelay is 1µs,
	// so 500ns is strictly mid-operation).
	p.k.After(500*sim.Nanosecond, func() { p.nb.SetDown(true) })
	p.run(t)
	if st != StatusTimeout {
		t.Fatalf("want TIMEOUT, got %v", st)
	}
	if p.k.LiveFibers() != 0 {
		t.Fatal("client fiber still blocked after the drop")
	}
}

// TestScheduledCrashAndRestart drives a FaultPlan NIC crash/restart window
// and checks that ops before, during, and after the window complete with
// the expected statuses — and that the restart revives the datapath.
func TestScheduledCrashAndRestart(t *testing.T) {
	p := newFaultPair(t, 3)
	mustInstall(t, p.fab, &FaultPlan{NICs: []NICFault{
		{Host: "b", At: sim.Time(100 * sim.Microsecond), Down: true},
		{Host: "b", At: sim.Time(400 * sim.Microsecond), Down: false},
	}})
	var results []Status
	p.qa.SendCQ().SetDrainHandler(func(es []CQE) {
		for _, e := range es {
			results = append(results, e.Status)
		}
	})
	const ops = 10
	p.k.Spawn("client", func(f *sim.Fiber) {
		for i := 0; i < ops; i++ {
			postWrite(t, p, uint64(i))
			f.Sleep(60 * sim.Microsecond)
		}
	})
	p.run(t)
	if len(results) != ops {
		t.Fatalf("want %d completions, got %d (an op hung or doubled)", ops, len(results))
	}
	// Posts at 0,60µs land before the crash; 120..360µs are lost in the
	// window; 420µs onward hit the restarted NIC.
	okWant := []int{0, 1, 7, 8, 9}
	for _, i := range okWant {
		if results[i] != StatusSuccess {
			t.Fatalf("op %d: want OK, got %v (results %v)", i, results[i], results)
		}
	}
	for i := 2; i <= 6; i++ {
		if results[i] != StatusTimeout && results[i] != StatusFlushed {
			t.Fatalf("op %d: want TIMEOUT/FLUSHED, got %v (results %v)", i, results[i], results)
		}
	}
	if p.fab.FaultStats().Drops == 0 {
		t.Fatal("no drops recorded during the crash window")
	}
}

// TestLinkPartitionWindow checks the [from, until) partition semantics and
// the bounded CQ wait: ops before and after the window succeed, ops inside
// it surface StatusTimeout.
func TestLinkPartitionWindow(t *testing.T) {
	p := newFaultPair(t, 5)
	mustInstall(t, p.fab, &FaultPlan{Links: []LinkFault{{
		From:           "a",
		PartitionFrom:  sim.Time(10 * sim.Microsecond),
		PartitionUntil: sim.Time(200 * sim.Microsecond),
	}}})
	var got []CQE
	var next *sim.Signal // fired by the completion a fiber awaits
	p.qa.SendCQ().SetDrainHandler(func(batch []CQE) {
		got = append(got, batch...)
		if s := next; s != nil {
			next = nil
			s.Fire(nil)
		}
	})
	done := false
	p.k.Spawn("client", func(f *sim.Fiber) {
		expect := func(stage string, want Status) {
			if len(got) == 0 {
				next = sim.NewSignal()
				_ = f.Await(next)
			}
			if len(got) != 1 || got[0].Status != want {
				t.Errorf("%s: want %v, got %v", stage, want, got)
			}
			got = got[:0]
		}
		postWrite(t, p, 1) // t=0: before the window
		expect("before", StatusSuccess)
		f.Sleep(50*sim.Microsecond - sim.Duration(f.Now()))
		postWrite(t, p, 2) // t=50µs: inside the window
		expect("inside", StatusTimeout)
		postWrite(t, p, 3) // t=50µs+ackTimeout: after the window
		expect("after", StatusSuccess)
		done = true
	})
	p.run(t)
	if !done {
		t.Fatal("a write never completed")
	}
	if got := p.fab.FaultStats().Drops; got != 1 {
		t.Fatalf("want exactly 1 partition drop, got %d", got)
	}
}

// TestDuplicateDeliveriesSuppressed injects a duplicate for every message
// on the a→b link and checks each write is applied exactly once.
func TestDuplicateDeliveriesSuppressed(t *testing.T) {
	p := newTestPair(t)
	mustInstall(t, p.fab, &FaultPlan{Links: []LinkFault{{From: "a", To: "b", DupProb: 1}}})
	const ops = 10
	var sent, applied int
	p.qa.SendCQ().SetDrainHandler(func(es []CQE) {
		for _, e := range es {
			if e.Status != StatusSuccess {
				t.Errorf("sender CQE: %v", e.Status)
			}
			sent++
		}
	})
	p.qb.RecvCQ().SetDrainHandler(func(es []CQE) { applied += len(es) })
	for i := 0; i < ops; i++ {
		p.qb.PostRecv(RecvWQE{WRID: uint64(i)})
	}
	p.k.Spawn("client", func(f *sim.Fiber) {
		for i := 0; i < ops; i++ {
			_ = p.na.Memory().Write(bufA, []byte{byte(i)})
			if _, err := p.qa.PostSend(WQE{
				Opcode: OpWriteImm, Flags: FlagSignaled, WRID: uint64(i), Imm: uint32(i),
				Local: bufA, Len: 1, Remote: bufB, Aux1: p.mrb.RKey,
			}); err != nil {
				t.Error(err)
			}
			f.Sleep(5 * sim.Microsecond)
		}
	})
	p.run(t)
	if sent != ops || applied != ops {
		t.Fatalf("want %d sent and applied once each, got sent=%d applied=%d", ops, sent, applied)
	}
	fs := p.fab.FaultStats()
	if fs.Dups != ops || fs.DupsSuppressed != fs.Dups {
		t.Fatalf("want %d dups all suppressed, got %+v", ops, fs)
	}
}

// faultTrace runs a lossy, duplicating, crash-punctuated workload and
// returns the full completion trace plus fault counters.
func faultTrace(t *testing.T, seed uint64) (string, FaultStats) {
	t.Helper()
	p := newFaultPair(t, seed)
	mustInstall(t, p.fab, &FaultPlan{
		NICs: []NICFault{
			{Host: "b", At: sim.Time(40 * sim.Microsecond), Down: true},
			{Host: "b", At: sim.Time(80 * sim.Microsecond), Down: false},
		},
		Links: []LinkFault{
			{From: "a", To: "b", DropProb: 0.25, DupProb: 0.25, ExtraDelay: 2 * sim.Microsecond},
			{From: "b", To: "a", DropProb: 0.25},
		},
	})
	var tr strings.Builder
	p.qa.SendCQ().SetDrainHandler(func(es []CQE) {
		for _, e := range es {
			fmt.Fprintf(&tr, "%d:%v@%v;", e.WRID, e.Status, e.At)
		}
	})
	p.k.Spawn("client", func(f *sim.Fiber) {
		for i := 0; i < 40; i++ {
			postWrite(t, p, uint64(i))
			f.Sleep(3 * sim.Microsecond)
		}
	})
	if err := p.k.Run(); err != nil {
		t.Fatal(err)
	}
	return tr.String(), p.fab.FaultStats()
}

// TestFaultPlanDeterministic replays the same seeded fault plan twice and
// requires byte-identical completion traces and fault counters — the
// property the failover experiment's serial-vs-overlapped golden rests on.
func TestFaultPlanDeterministic(t *testing.T) {
	for _, seed := range []uint64{1, 2, 42} {
		tr1, fs1 := faultTrace(t, seed)
		tr2, fs2 := faultTrace(t, seed)
		if tr1 != tr2 {
			t.Fatalf("seed %d: fault replay diverged:\n%s\nvs\n%s", seed, tr1, tr2)
		}
		if fs1 != fs2 {
			t.Fatalf("seed %d: fault stats diverged: %+v vs %+v", seed, fs1, fs2)
		}
		if fs1.Drops == 0 {
			t.Fatalf("seed %d: plan injected no drops; trace untested", seed)
		}
	}
}

// TestFaultStressAllOpsResolve is the no-eternal-hang acceptance test:
// under bidirectional random drops, duplication, and extra delay, every
// posted op must resolve — success or error CQE — with no fiber left
// blocked and no pending op stranded.
func TestFaultStressAllOpsResolve(t *testing.T) {
	for _, seed := range []uint64{1, 2, 42} {
		p := newFaultPair(t, seed)
		mustInstall(t, p.fab, &FaultPlan{Links: []LinkFault{
			{From: "a", To: "b", DropProb: 0.3, DupProb: 0.2, ExtraDelay: 2 * sim.Microsecond},
			{From: "b", To: "a", DropProb: 0.3, DupProb: 0.2},
		}})
		const ops = 120
		var aDone, bDone int
		p.qa.SendCQ().SetDrainHandler(func(es []CQE) { aDone += len(es) })
		p.qb.SendCQ().SetDrainHandler(func(es []CQE) { bDone += len(es) })
		p.k.Spawn("a", func(f *sim.Fiber) {
			for i := 0; i < ops; i++ {
				postWrite(t, p, uint64(i))
				f.Sleep(sim.Microsecond)
			}
		})
		p.k.Spawn("b", func(f *sim.Fiber) {
			for i := 0; i < ops; i++ {
				if _, err := p.qb.PostSend(WQE{
					Opcode: OpWrite, Flags: FlagSignaled, WRID: uint64(i),
					Local: bufB, Len: 1, Remote: bufA, Aux1: p.mra.RKey,
				}); err != nil {
					t.Error(err)
				}
				f.Sleep(sim.Microsecond)
			}
		})
		p.run(t)
		if aDone != ops || bDone != ops {
			t.Fatalf("seed %d: ops stranded: a %d/%d, b %d/%d", seed, aDone, ops, bDone, ops)
		}
		if p.qa.pending.Len() != 0 || p.qb.pending.Len() != 0 {
			t.Fatalf("seed %d: pending ops left: a=%d b=%d", seed, p.qa.pending.Len(), p.qb.pending.Len())
		}
		if p.k.LiveFibers() != 0 {
			t.Fatalf("seed %d: %d fibers still blocked", seed, p.k.LiveFibers())
		}
		fs := p.fab.FaultStats()
		if fs.Drops == 0 || fs.Dups == 0 {
			t.Fatalf("seed %d: stress injected nothing: %+v", seed, fs)
		}
	}
}
