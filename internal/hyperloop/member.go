package hyperloop

import (
	"hyperloop/internal/protocol"
	"hyperloop/internal/rdma"
)

// member is the NIC core every NIC-offloaded member shares — a chain
// replica, the fan-out primary and a leafMember: the NIC, its mirror's
// MR, the QP operations arrive on and the loopback QP that executes them.
// Per operation the loopback runs, without CPU:
//
//	loopback QP:  [WAIT(recvCQ,1) → L1 → L2]      local ops
//
// and the metadata receive on qpPrev scatters the patched L1/L2 into the
// loopback's pre-posted slots (remote work request manipulation, §4.1),
// and the rest of the message wherever the member forwards or acks from.
type member struct {
	nic    *rdma.NIC
	mirror *rdma.MemoryRegion

	qpPrev *rdma.QP     // from the sender; its recv CQ gates L1/L2
	qpLoop *rdma.QP     // loopback for the local ops; its send CQ gates what follows them
	recv   [][]rdma.SGE // qpPrev's scatter lists by seq % Depth
}

// finish checks the member's carving on h, connects the loopback and
// builds the metadata receive's scatter list of every window slot, which
// depends on seq % depth alone.
func (m *member) finish(h *protocol.Host, depth int, sges func(seq uint64) []rdma.SGE) error {
	if err := h.Err(); err != nil {
		return err
	}
	m.qpLoop.Connect(m.qpLoop)
	m.recv = perSlot(depth, sges)
	return nil
}

// armLoop posts op seq's loopback block: a WAIT for the metadata receive,
// then the two (to-be-patched) local operations. Placeholders are
// signaled NOPs so the block also works if a patch leaves them untouched.
// The caller posts its own chains behind it, then postRecv.
func (m *member) armLoop(seq uint64) error {
	if _, err := m.qpLoop.PostSend(rdma.WQE{
		Opcode: rdma.OpWait, Imm: 1, Aux1: m.qpPrev.RecvCQ().CQN(), Aux2: 2, WRID: seq,
	}); err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		if _, err := m.qpLoop.PostSendDeferred(rdma.WQE{
			Opcode: rdma.OpNop, Flags: rdma.FlagSignaled, WRID: seq,
		}); err != nil {
			return err
		}
	}
	return nil
}

// postRecv posts op seq's metadata receive. It comes after every chain
// slot of the op exists, so a racing (RNR-delayed) delivery cannot scatter
// into slots that placeholders are about to overwrite.
func (m *member) postRecv(seq uint64) {
	m.qpPrev.PostRecv(rdma.RecvWQE{WRID: seq, SGEs: m.recv[seq%uint64(len(m.recv))]})
}

// perSlot builds one scatter list per window slot.
func perSlot(depth int, sges func(seq uint64) []rdma.SGE) [][]rdma.SGE {
	out := make([][]rdma.SGE, depth)
	for i := range out {
		out[i] = sges(uint64(i))
	}
	return out
}

// appendSlotSGEs appends the scatter elements that land op seq's two
// patchable descriptors directly in qp's pre-posted send slots A and B.
func appendSlotSGEs(sges []rdma.SGE, qp *rdma.QP, seq uint64) []rdma.SGE {
	ring, slots := qp.RingOff(), qp.RingSlots()
	return append(sges,
		rdma.SGE{Addr: rdma.DescAddr(ring, slots, chainSlotA(seq)), Len: rdma.DescLen},
		rdma.SGE{Addr: rdma.DescAddr(ring, slots, chainSlotB(seq)), Len: rdma.DescLen})
}

// leafMember is a replica that forwards nothing: it executes each
// operation through the member loopback and SENDs one ack to the peer its
// qpAck is connected to. A fan-out backup (ack → primary) and a broadcast
// member (ack → client) are both leaf members; they differ only in where
// the group aims the ack. Per operation it adds, behind the loopback:
//
//	ack QP:       [WAIT(loopCQ,2) → SEND hdr+res]  ack to the peer
type leafMember struct {
	member
	depth int

	qpAck *rdma.QP // to the ack target; its send CQ drives re-arm

	ackOff uint64 // per-op ack slots: [16 hdr][8 result]
}

// Leaf-member message sizes: the metadata a member receives is
// [L1][L2][hdr]; its ack is [hdr][result].
const (
	fanBackupMetaLen = 2*rdma.DescLen + headerSize
	fanAckLen        = headerSize + resultEntry
)

// setupLeafMember carves the member's share of h and creates its QPs. The
// caller connects qpPrev and qpAck, arms Depth operations, and installs
// the re-arm on qpAck's send completions.
func setupLeafMember(h *protocol.Host, depth int) (*leafMember, error) {
	m := &leafMember{member: member{nic: h.NIC()}, depth: depth}
	m.ackOff = h.Region("ack", depth*fanAckLen)
	m.mirror = h.MirrorMR()
	recvCQ, loopCQ := h.CQ(), h.CQ()
	m.qpPrev = h.QP("prev-ring", 1, nil, recvCQ)
	m.qpLoop = h.QP("loop-ring", slotsPerOp*depth, loopCQ, nil)
	m.qpAck = h.QP("ack-ring", 2*depth, nil, nil)
	// The metadata lands L1/L2 in the loopback and the header in the ack
	// slot the member SENDs back.
	return m, m.finish(h, depth, func(seq uint64) []rdma.SGE {
		sges := appendSlotSGEs(make([]rdma.SGE, 0, 3), m.qpLoop, seq)
		return append(sges, rdma.SGE{Addr: m.ackAddr(seq), Len: headerSize})
	})
}

// ackAddr is the member-side ack slot for op seq; the member's CAS result
// lands headerSize into it.
func (m *leafMember) ackAddr(seq uint64) uint64 {
	return m.ackOff + (seq%uint64(m.depth))*uint64(fanAckLen)
}

// arm pre-posts the member's chains and receive for op seq.
func (m *leafMember) arm(seq uint64) error {
	if err := m.armLoop(seq); err != nil {
		return err
	}
	// Ack chain: both local ops done → SEND [hdr][result] to the peer.
	if _, err := m.qpAck.PostSend(rdma.WQE{
		Opcode: rdma.OpWait, Imm: 2, Aux1: m.qpLoop.SendCQ().CQN(), WRID: seq,
	}); err != nil {
		return err
	}
	if _, err := m.qpAck.PostSend(rdma.WQE{
		Opcode: rdma.OpSend, Flags: rdma.FlagSignaled, WRID: seq,
		Local: m.ackAddr(seq), Len: uint64(fanAckLen),
	}); err != nil {
		return err
	}
	m.postRecv(seq)
	return nil
}
