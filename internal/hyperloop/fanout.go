package hyperloop

import (
	"fmt"

	"hyperloop/internal/protocol"
	"hyperloop/internal/rdma"
)

// FanoutGroup implements the paper's §7 extension: instead of a chain, a
// single primary coordinates all backups (FaRM-style), with the
// coordination offloaded from the primary's CPU to the primary's NIC.
//
// Per operation the primary's NIC runs, without CPU:
//
//	loopback QP:        [WAIT(recvCQ,1) → L1 → L2]        local ops
//	per-backup fwd QP:  [WAIT_ABS(loopCQ) → F1 → F2]      parallel fan-out
//	client QP:          [WAIT_ABS(ack_1) … WAIT_ABS(ack_B) → ACK WRITE_IMM]
//
// Each backup runs the same loopback chain plus an ACK SEND back to the
// primary. The per-backup absolute WAITs make the group ACK correct even
// with pipelined operations: the ACK for sequence s fires only once every
// backup has acknowledged its s-th operation.
//
// Chain vs fan-out is the load-balance trade-off the paper discusses: the
// chain keeps at most one active write QP per hop, while fan-out
// concentrates G-1 of them (and all the data transmission) on the primary.
// The embedded protocol.Group is its protocol.Protocol surface (registered
// as "fanout"); this type is that group's strategy.
type FanoutGroup struct {
	*protocol.Group

	qpHead  *rdma.QP // client ↔ primary: metadata out, group ACK in
	ack     groupAck
	metaOff uint64

	primary *fanPrimary
	backups []*leafMember

	metaBuf []byte // Transmit's metadata build scratch; copied into client memory per op
}

// fanPrimary holds the coordinator's NIC resources: the member core,
// whose qpPrev is the client's QP (metadata in, group ACK out), plus one
// forward and one ack-in QP per backup.
type fanPrimary struct {
	member
	qpFwd   []*rdma.QP     // one per backup
	qpAckIn []*rdma.QP     // one per backup, ack receive side; its recv CQ gates the group ACK
	ackRecv [][][]rdma.SGE // qpAckIn[j]'s scatter lists by seq % Depth

	resultOff  uint64 // per-op result blocks, laid out as the client's ACK slots
	stagingOff uint64 // per-op per-backup forwarded metadata
}

// Fan-out metadata layout (client → primary):
//
//	[P.L1][P.L2]  [F1_1][F2_1]…[F1_B][F2_B]  [bmeta_1]…[bmeta_B]  [hdr]
//
// where bmeta_j = [B.L1][B.L2][hdr] (fanBackupMetaLen bytes) is forwarded
// verbatim to backup j.

func (g *FanoutGroup) numBackups() int { return len(g.backups) }

func (g *FanoutGroup) metaLen() int {
	b := g.numBackups()
	return 2*rdma.DescLen + b*2*rdma.DescLen + b*fanBackupMetaLen + headerSize
}

// SetupFanout builds a fan-out group over env's replicas with policy p:
// Replicas[0] is the primary, the rest are backups. A Setup that fails
// closes the group, so the NICs it claimed can host another.
func SetupFanout(env protocol.Env, p protocol.Params) (*FanoutGroup, error) {
	p, err := p.Check(len(env.Replicas))
	if err != nil {
		return nil, fmt.Errorf("hyperloop: fan-out setup: %w", err)
	}
	g := &FanoutGroup{}
	g.Group = protocol.NewGroup(env, p, g)
	if err := g.setup(env); err != nil {
		g.Close()
		return nil, err
	}
	return g, nil
}

func (g *FanoutGroup) setup(env protocol.Env) error {
	depth := g.Params().Depth
	g.backups = make([]*leafMember, len(env.Replicas)-1) // metaLen needs the count
	g.metaBuf = make([]byte, g.metaLen())
	if err := g.setupClient(); err != nil {
		return err
	}
	if err := g.setupPrimary(env.Replicas[0]); err != nil {
		return fmt.Errorf("primary: %w", err)
	}
	for j := range g.backups {
		b, err := setupLeafMember(g.Host(env.Replicas[j+1]), depth)
		if err != nil {
			return fmt.Errorf("backup %d: %w", j+1, err)
		}
		g.backups[j] = b
	}
	// Wire: client ↔ primary; primary fwd_j ↔ backup j prev; backup ack ↔
	// primary ackIn_j. The ACK WRITE_IMM travels primary→client on the same
	// QP pair, so ACK receives are posted on qpHead itself.
	g.qpHead.Connect(g.primary.qpPrev)
	g.ack.qp = g.qpHead
	for j, b := range g.backups {
		g.primary.qpFwd[j].Connect(b.qpPrev)
		b.qpAck.Connect(g.primary.qpAckIn[j])
	}
	for seq := uint64(0); seq < uint64(depth); seq++ {
		if err := g.armPrimary(seq); err != nil {
			return fmt.Errorf("arm primary seq %d: %w", seq, err)
		}
		for j, b := range g.backups {
			if err := b.arm(seq); err != nil {
				return fmt.Errorf("arm backup %d seq %d: %w", j+1, seq, err)
			}
		}
		g.ack.qp.PostRecv(rdma.RecvWQE{})
	}
	reArmOn(g.primary.qpPrev.SendCQ(), g.Group, g.primary.nic, depth, g.armPrimary)
	for _, b := range g.backups {
		reArmOn(b.qpAck.SendCQ(), g.Group, b.nic, depth, b.arm)
	}
	g.ack.qp.RecvCQ().SetDrainHandler(g.ack.onAcks)
	return nil
}

func (g *FanoutGroup) setupClient() error {
	depth := g.Params().Depth
	h := g.Host(g.ClientNIC())
	g.metaOff = h.Region("meta", depth*g.metaLen())
	g.ack.carve(h, g.Group, depth)
	g.qpHead = h.QP("head-ring", 2*depth, nil, nil)
	return h.Err()
}

func (g *FanoutGroup) setupPrimary(nic *rdma.NIC) error {
	depth := g.Params().Depth
	h := g.Host(nic)
	p := &fanPrimary{member: member{nic: nic}}
	b := g.numBackups()
	p.resultOff = h.Region("results", depth*g.ack.slotLen())
	p.stagingOff = h.Region("staging", depth*max(b, 1)*fanBackupMetaLen)
	p.mirror = h.MirrorMR()
	recvCQ, loopCQ := h.CQ(), h.CQ()
	p.qpPrev = h.QP("client-ring", (max(b, 1)+1)*depth, nil, recvCQ)
	p.qpLoop = h.QP("loop-ring", slotsPerOp*depth, loopCQ, nil)
	for j := 0; j < b; j++ {
		p.qpFwd = append(p.qpFwd, h.QP(fmt.Sprintf("fwd-ring-%d", j), slotsPerOp*depth, nil, nil))
		p.qpAckIn = append(p.qpAckIn, h.QP(fmt.Sprintf("ackin-ring-%d", j), 1, nil, h.CQ()))
	}
	g.primary = p
	// Metadata receive: descriptor blocks scatter into the pre-posted WQE
	// slots; each backup's peeled metadata into its staging slot; the
	// header into the result block.
	if err := p.finish(h, depth, func(seq uint64) []rdma.SGE {
		sges := appendSlotSGEs(make([]rdma.SGE, 0, 2+3*b+1), p.qpLoop, seq)
		for _, qp := range p.qpFwd {
			sges = appendSlotSGEs(sges, qp, seq)
		}
		for j := 0; j < b; j++ {
			sges = append(sges, rdma.SGE{Addr: g.stagingAddr(j, seq), Len: uint64(fanBackupMetaLen)})
		}
		return append(sges, rdma.SGE{Addr: g.hdrAddr(seq), Len: headerSize})
	}); err != nil {
		return err
	}
	// Ack receives from each backup: header + that backup's result field.
	for j := 0; j < b; j++ {
		p.ackRecv = append(p.ackRecv, perSlot(depth, func(seq uint64) []rdma.SGE {
			return []rdma.SGE{
				{Addr: g.hdrAddr(seq), Len: headerSize},
				{Addr: g.resultSlotAddr(seq) + uint64((j+1)*resultEntry), Len: resultEntry},
			}
		}))
	}
	return nil
}
