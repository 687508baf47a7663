package hyperloop

import (
	"fmt"

	"hyperloop/internal/nvm"
	"hyperloop/internal/protocol"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
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
	cfg    Config

	qpPrev *rdma.QP // from the sender (primary or client)
	qpLoop *rdma.QP
	qpAck  *rdma.QP // to the ack target

	recvCQ *rdma.CQ
	loopCQ *rdma.CQ

	ackOff uint64 // per-op ack slots: [16 hdr][8 result]

	completed uint64
}

// Leaf-member message sizes: the metadata a member receives is
// [L1][L2][hdr]; its ack is [hdr][result].
const (
	fanBackupMetaLen = 2*rdma.DescLen + headerSize
	fanAckLen        = headerSize + resultEntry
)

// setupLeafMember carves nic's memory and creates the member's QPs. The
// caller connects qpPrev and qpAck, arms Depth operations, and installs
// the re-arm handler.
func setupLeafMember(nic *rdma.NIC, cfg Config) (*leafMember, error) {
	m := &leafMember{nic: nic, cfg: cfg}
	alloc := nvm.NewAllocator(nic.Memory())
	mirror, err := alloc.Alloc("mirror", cfg.MirrorSize)
	if err != nil {
		return nil, err
	}
	if mirror.Off != 0 {
		return nil, fmt.Errorf("hyperloop: member mirror not at offset 0")
	}
	ackBuf, err := alloc.Alloc("ack", cfg.Depth*fanAckLen)
	if err != nil {
		return nil, err
	}
	prevRing, err := alloc.Alloc("prev-ring", rdma.WQESize)
	if err != nil {
		return nil, err
	}
	loopRing, err := alloc.Alloc("loop-ring", 3*cfg.Depth*rdma.WQESize)
	if err != nil {
		return nil, err
	}
	ackRing, err := alloc.Alloc("ack-ring", 2*cfg.Depth*rdma.WQESize)
	if err != nil {
		return nil, err
	}
	m.ackOff = uint64(ackBuf.Off)
	m.mirror, err = nic.RegisterMR(0, uint64(cfg.MirrorSize),
		rdma.AccessRemoteRead|rdma.AccessRemoteWrite|rdma.AccessRemoteAtomic)
	if err != nil {
		return nil, err
	}
	m.recvCQ = nic.CreateCQ()
	m.loopCQ = nic.CreateCQ()
	m.qpPrev, err = nic.CreateQP(rdma.QPConfig{
		SendRingOff: uint64(prevRing.Off), SendSlots: 1,
		SendCQ: nic.CreateCQ(), RecvCQ: m.recvCQ,
	})
	if err != nil {
		return nil, err
	}
	m.qpLoop, err = nic.CreateQP(rdma.QPConfig{
		SendRingOff: uint64(loopRing.Off), SendSlots: loopRing.Len / rdma.WQESize,
		SendCQ: m.loopCQ, RecvCQ: nic.CreateCQ(),
	})
	if err != nil {
		return nil, err
	}
	m.qpLoop.Connect(m.qpLoop)
	m.qpAck, err = nic.CreateQP(rdma.QPConfig{
		SendRingOff: uint64(ackRing.Off), SendSlots: ackRing.Len / rdma.WQESize,
		SendCQ: nic.CreateCQ(), RecvCQ: nic.CreateCQ(),
	})
	if err != nil {
		return nil, err
	}
	// recvCQ/loopCQ drive WAIT thresholds only and the rest are never
	// read. qpAck's send CQ gets its drain handler in installReArm.
	m.recvCQ.Discard()
	m.loopCQ.Discard()
	m.qpPrev.SendCQ().Discard()
	m.qpLoop.RecvCQ().Discard()
	m.qpAck.RecvCQ().Discard()
	return m, nil
}

// ackAddr is the member-side ack slot for op seq; the member's CAS result
// lands headerSize into it.
func (m *leafMember) ackAddr(seq uint64) uint64 {
	return m.ackOff + (seq%uint64(m.cfg.Depth))*uint64(fanAckLen)
}

// arm pre-posts the member's chains and receive for op seq.
func (m *leafMember) arm(seq uint64) error {
	loopRing, loopSlots := m.qpLoop.RingOff(), m.qpLoop.RingSlots()
	ackAddr := m.ackAddr(seq)
	if _, err := m.qpLoop.PostSend(rdma.WQE{
		Opcode: rdma.OpWait, Imm: 1, Aux1: m.recvCQ.CQN(), Aux2: 2, WRID: seq,
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
		Opcode: rdma.OpWait, Imm: 2, Aux1: m.loopCQ.CQN(), WRID: seq,
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

// installReArm wires the member's off-critical-path chain replenishment,
// driven by its ack-send completions.
func (m *leafMember) installReArm(k *sim.Kernel, grp *protocol.Group) {
	m.qpAck.SendCQ().SetDrainHandler(func(batch []rdma.CQE) {
		for range batch {
			seq := m.completed
			m.completed++
			reArmAfter(k, grp, m.nic, m.cfg.ReArmDelay, func() {
				_ = m.arm(seq + uint64(m.cfg.Depth))
			})
		}
	})
}

// destroy tears down the member's QPs so the NIC can host a new group.
func (m *leafMember) destroy() {
	m.qpPrev.Destroy()
	m.qpLoop.Destroy()
	m.qpAck.Destroy()
}
