package hyperloop

import (
	"hyperloop/internal/rdma"
)

// arm pre-posts the WQE chains and the scatter receive for operation seq on
// replica r. This runs on the replica's control path (setup and lazy
// re-arm) — never on the datapath.
func (g *Group) arm(r *replica, seq uint64) error {
	// The metadata receive is posted after the chain slots exist.
	defer r.postRecv(seq)
	if err := r.armLoop(seq); err != nil {
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

// recvSGEs is the scatter list of replica r's metadata receive for seq:
// the first four elements land the descriptor block directly inside the
// pre-posted WQE slots of the loopback and next-hop rings; the rest goes
// to this op's staging slot for forwarding.
func (g *Group) recvSGEs(r *replica, seq uint64) []rdma.SGE {
	sges := appendSlotSGEs(make([]rdma.SGE, 0, 5), r.qpLoop, seq)
	sges = appendSlotSGEs(sges, r.qpNext, seq)
	return append(sges, rdma.SGE{Addr: g.stagingAddr(r, seq), Len: uint64(r.metaRest)})
}
