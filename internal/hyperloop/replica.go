package hyperloop

import (
	"hyperloop/internal/rdma"
)

// arm pre-posts the WQE chains and the scatter receive for operation seq on
// replica r. This runs on the replica's control path (setup and lazy
// re-arm) — never on the datapath.
func (g *Group) arm(r *replica, seq uint64) error {
	// The metadata receive is posted after the chain slots exist.
	defer r.qpPrev.PostRecv(rdma.RecvWQE{WRID: seq, SGEs: r.recv[seq%uint64(g.params.Depth)]})

	// Loopback chain: WAIT for the metadata receive, then run the two
	// (to-be-patched) local operations. Placeholders are signaled NOPs so
	// the chain also works if a patch leaves them untouched.
	if _, err := r.qpLoop.PostSend(rdma.WQE{
		Opcode: rdma.OpWait, Imm: 1, Aux1: r.qpPrev.RecvCQ().CQN(), Aux2: 2, WRID: seq,
	}); err != nil {
		return err
	}
	if _, err := r.qpLoop.PostSendDeferred(rdma.WQE{
		Opcode: rdma.OpNop, Flags: rdma.FlagSignaled, WRID: seq,
	}); err != nil {
		return err
	}
	if _, err := r.qpLoop.PostSendDeferred(rdma.WQE{
		Opcode: rdma.OpNop, Flags: rdma.FlagSignaled, WRID: seq,
	}); err != nil {
		return err
	}

	// Next-hop chain: WAIT for both local completions, then forward the
	// data WRITE (F1) and the peeled metadata SEND (F2).
	if _, err := r.qpNext.PostSend(rdma.WQE{
		Opcode: rdma.OpWait, Imm: 2, Aux1: r.qpLoop.SendCQ().CQN(), Aux2: 2, WRID: seq,
	}); err != nil {
		return err
	}
	if _, err := r.qpNext.PostSendDeferred(rdma.WQE{
		Opcode: rdma.OpNop, WRID: seq,
	}); err != nil {
		return err
	}
	if _, err := r.qpNext.PostSendDeferred(rdma.WQE{
		Opcode: rdma.OpNop, Flags: rdma.FlagSignaled, WRID: seq,
	}); err != nil {
		return err
	}
	return nil
}

// recvSGEs is the scatter list of replica r's metadata receive for seq,
// which depends on seq % Depth alone, so setup builds each slot's once:
// the first four elements land the descriptor block directly inside the
// pre-posted WQE slots (remote work request manipulation); the rest goes
// to this op's staging slot for forwarding.
func (g *Group) recvSGEs(r *replica, seq uint64) []rdma.SGE {
	loopRing, loopSlots := r.qpLoop.RingOff(), r.qpLoop.RingSlots()
	nextRing, nextSlots := r.qpNext.RingOff(), r.qpNext.RingSlots()
	return []rdma.SGE{
		{Addr: rdma.DescAddr(loopRing, loopSlots, chainSlotA(seq)), Len: rdma.DescLen},
		{Addr: rdma.DescAddr(loopRing, loopSlots, chainSlotB(seq)), Len: rdma.DescLen},
		{Addr: rdma.DescAddr(nextRing, nextSlots, chainSlotA(seq)), Len: rdma.DescLen},
		{Addr: rdma.DescAddr(nextRing, nextSlots, chainSlotB(seq)), Len: rdma.DescLen},
		{Addr: g.stagingAddr(r, seq), Len: uint64(r.metaRest)},
	}
}
