package hyperloop

import (
	"hyperloop/internal/protocol"
	"hyperloop/internal/rdma"
)

// leafMember holds the NIC resources of a replica that forwards nothing:
// it executes each operation through a pre-posted WAIT-gated loopback
// chain and SENDs one ack to the peer its qpAck is connected to. A
// fan-out backup (ack → primary) and a broadcast member (ack → client)
// are both leaf members; they differ only in where the group aims the ack.
//
// Per operation the member's NIC runs, without CPU:
//
//	loopback QP:  [WAIT(recvCQ,1) → L1 → L2]      local ops
//	ack QP:       [WAIT(loopCQ,2) → SEND hdr+res]  ack to the peer
type leafMember struct {
	nic    *rdma.NIC
	mirror *rdma.MemoryRegion
	depth  int

	qpPrev *rdma.QP // from the sender (primary or client); its recv CQ gates L1/L2
	qpLoop *rdma.QP // its send CQ gates the ack
	qpAck  *rdma.QP // to the ack target; its send CQ drives re-arm

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
	m := &leafMember{nic: h.NIC(), depth: depth}
	m.ackOff = h.Region("ack", depth*fanAckLen)
	m.mirror = h.MirrorMR()
	recvCQ, loopCQ := h.CQ(), h.CQ()
	m.qpPrev = h.QP("prev-ring", 1, nil, recvCQ)
	m.qpLoop = h.QP("loop-ring", slotsPerOp*depth, loopCQ, nil)
	m.qpAck = h.QP("ack-ring", 2*depth, nil, nil)
	if err := h.Err(); err != nil {
		return nil, err
	}
	m.qpLoop.Connect(m.qpLoop)
	return m, nil
}

// ackAddr is the member-side ack slot for op seq; the member's CAS result
// lands headerSize into it.
func (m *leafMember) ackAddr(seq uint64) uint64 {
	return m.ackOff + (seq%uint64(m.depth))*uint64(fanAckLen)
}

// arm pre-posts the member's chains and receive for op seq.
func (m *leafMember) arm(seq uint64) error {
	loopRing, loopSlots := m.qpLoop.RingOff(), m.qpLoop.RingSlots()
	ackAddr := m.ackAddr(seq)
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
	// Ack chain: both local ops done → SEND [hdr][result] to the peer.
	if _, err := m.qpAck.PostSend(rdma.WQE{
		Opcode: rdma.OpWait, Imm: 2, Aux1: m.qpLoop.SendCQ().CQN(), WRID: seq,
	}); err != nil {
		return err
	}
	if _, err := m.qpAck.PostSend(rdma.WQE{
		Opcode: rdma.OpSend, Flags: rdma.FlagSignaled, WRID: seq,
		Local: ackAddr, Len: uint64(fanAckLen),
	}); err != nil {
		return err
	}
	m.qpPrev.PostRecv(rdma.RecvWQE{
		WRID: seq,
		SGEs: []rdma.SGE{
			{Addr: rdma.DescAddr(loopRing, loopSlots, chainSlotA(seq)), Len: rdma.DescLen},
			{Addr: rdma.DescAddr(loopRing, loopSlots, chainSlotB(seq)), Len: rdma.DescLen},
			{Addr: ackAddr, Len: headerSize},
		},
	})
	return nil
}
