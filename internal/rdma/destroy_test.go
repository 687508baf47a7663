package rdma

import (
	"errors"
	"testing"

	"hyperloop/internal/sim"
)

func TestDestroyedQPRejectsPostsAndDropsInbound(t *testing.T) {
	p := newTestPair(t)
	p.qb.PostRecv(RecvWQE{SGEs: []SGE{{Addr: bufB, Len: 64}}})

	// A message in flight toward a QP that is destroyed before delivery is
	// dropped like a message to a dead NIC — the sender's ack timeout
	// surfaces the loss as an error CQE instead of a hang.
	var sendSt Status
	p.na.mem.Write(bufA, make([]byte, 64))
	if _, err := p.qa.PostSend(WQE{
		Opcode: OpSend, Flags: FlagSignaled,
		Local: bufA, Len: 64,
	}); err != nil {
		t.Fatal(err)
	}
	p.qa.sendCQ.SetDrainHandler(func(es []CQE) { sendSt = es[len(es)-1].Status })
	// Let the requester put the message on the wire, then destroy the
	// target while the delivery is still in flight.
	if err := p.k.RunUntil(sim.Time(200 * sim.Nanosecond)); err != nil {
		t.Fatal(err)
	}
	p.qb.Destroy()

	if !p.qb.Dead() {
		t.Error("Dead() = false after Destroy")
	}
	if _, err := p.qb.PostSend(WQE{Opcode: OpNop}); !errors.Is(err, ErrQPDestroyed) {
		t.Errorf("PostSend on destroyed QP: err = %v, want ErrQPDestroyed", err)
	}
	if got := p.nb.QP(p.qb.QPN()); got != nil {
		t.Errorf("QPN %d still resolves after Destroy", p.qb.QPN())
	}
	if p.qa.Peer() != nil {
		t.Error("peer link not severed by Destroy")
	}

	p.run(t)
	if sendSt != StatusTimeout {
		t.Errorf("sender completion status = %v, want StatusTimeout", sendSt)
	}
	if drops := p.fab.FaultStats().Drops; drops == 0 {
		t.Error("delivery to destroyed QP not counted as a drop")
	}
}

func TestDestroyedQPIgnoresParkedWAITWakes(t *testing.T) {
	// The failover hazard in miniature: a QP parks a WAIT on a CQ, is
	// destroyed, and a successor QP sharing the same ring memory posts its
	// own WAIT on the same CQ. The completion must go to the successor;
	// the dead QP's stale subscription must not consume it or re-read the
	// rewritten ring slot.
	p := newTestPair(t)
	cq := p.na.CreateCQ()

	old, err := p.na.CreateQP(QPConfig{
		SendRingOff: bufA, SendSlots: 4,
		SendCQ: p.na.CreateCQ(), RecvCQ: p.na.CreateCQ(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := old.PostSend(WQE{Opcode: OpWait, Imm: 1, Aux1: cq.CQN(), Aux2: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := old.PostSendDeferred(WQE{Opcode: OpNop, Flags: FlagSignaled}); err != nil {
		t.Fatal(err)
	}
	if err := p.k.Run(); err != nil { // park the WAIT
		t.Fatal(err)
	}
	old.Destroy()

	succ, err := p.na.CreateQP(QPConfig{
		SendRingOff: bufA, SendSlots: 4, // same ring memory
		SendCQ: p.na.CreateCQ(), RecvCQ: p.na.CreateCQ(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var nops int
	succ.SendCQ().SetDrainHandler(func(es []CQE) {
		for _, e := range es {
			if e.Op == OpNop && e.Status == StatusSuccess {
				nops++
			}
		}
	})
	if _, err := succ.PostSend(WQE{Opcode: OpWait, Imm: 1, Aux1: cq.CQN(), Aux2: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := succ.PostSendDeferred(WQE{Opcode: OpNop, Flags: FlagSignaled}); err != nil {
		t.Fatal(err)
	}
	if err := p.k.Run(); err != nil { // park the successor's WAIT
		t.Fatal(err)
	}

	cq.push(CQE{Op: OpNop, Status: StatusSuccess}) // satisfy exactly one WAIT
	if err := p.k.Run(); err != nil {
		t.Fatal(err)
	}
	if nops != 1 {
		t.Fatalf("successor completed %d NOPs, want 1 (WAIT stolen or lost)", nops)
	}
}

func TestDestroyedCQDropsCompletionsAndRetiresCQN(t *testing.T) {
	p := newTestPair(t)
	cq := p.na.CreateCQ()
	cqn := cq.CQN()
	cq.push(CQE{Op: OpNop, Status: StatusSuccess})
	cq.Destroy()
	if got := p.na.CQ(cqn); got != nil {
		t.Errorf("CQN %d still resolves after Destroy", cqn)
	}
	cq.push(CQE{Op: OpNop, Status: StatusSuccess}) // straggler via retained pointer
	if cq.Total() != 0 {
		t.Errorf("destroyed CQ retained state: total=%d", cq.Total())
	}

	// A WAIT naming the retired CQN completes with a local error rather
	// than parking forever.
	var st Status
	p.qa.sendCQ.SetDrainHandler(func(es []CQE) { st = es[len(es)-1].Status })
	nq, err := p.na.CreateQP(QPConfig{
		SendRingOff: bufB, SendSlots: 4,
		SendCQ: p.qa.sendCQ, RecvCQ: p.na.CreateCQ(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nq.PostSend(WQE{Opcode: OpWait, Flags: FlagSignaled, Imm: 1, Aux1: cqn, Aux2: 1}); err != nil {
		t.Fatal(err)
	}
	p.run(t)
	if st != StatusLocalError {
		t.Errorf("WAIT on retired CQN: status = %v, want StatusLocalError", st)
	}
}
