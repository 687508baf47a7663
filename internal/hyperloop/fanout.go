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

	params protocol.Params // checked: Depth is the window
	hosts  []*protocol.Host

	client  *rdma.NIC
	qpHead  *rdma.QP // client ↔ primary: metadata out, group ACK in
	ack     groupAck
	metaOff uint64

	primary *fanPrimary
	backups []*leafMember

	metaBuf []byte // Transmit's metadata build scratch; copied into client memory per op
}

// fanPrimary holds the coordinator's NIC resources.
type fanPrimary struct {
	nic    *rdma.NIC
	mirror *rdma.MemoryRegion

	qpClient *rdma.QP   // from client (metadata in, group ACK out); its recv CQ gates L1/L2
	qpLoop   *rdma.QP   // its send CQ gates the forward chains
	qpFwd    []*rdma.QP // one per backup
	qpAckIn  []*rdma.QP // one per backup, ack receive side; its recv CQ gates the group ACK

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
// Replicas[0] is the primary, the rest are backups.
func SetupFanout(env protocol.Env, p protocol.Params) (*FanoutGroup, error) {
	p, err := p.Check(len(env.Replicas))
	if err != nil {
		return nil, fmt.Errorf("hyperloop: fan-out setup: %w", err)
	}
	g := &FanoutGroup{params: p, client: env.Client}
	g.Group = protocol.NewGroup(env, p, g)
	g.backups = make([]*leafMember, len(env.Replicas)-1) // metaLen needs the count
	g.metaBuf = make([]byte, g.metaLen())
	if err := g.setupClient(); err != nil {
		return nil, err
	}
	if err := g.setupPrimary(env.Replicas[0]); err != nil {
		return nil, fmt.Errorf("primary: %w", err)
	}
	for j := range g.backups {
		h := protocol.NewHost(env.Replicas[j+1], p.MirrorSize)
		g.hosts = append(g.hosts, h)
		b, err := setupLeafMember(h, p.Depth)
		if err != nil {
			return nil, fmt.Errorf("backup %d: %w", j+1, err)
		}
		g.backups[j] = b
	}
	// Wire: client ↔ primary; primary fwd_j ↔ backup j prev; backup ack ↔
	// primary ackIn_j. The ACK WRITE_IMM travels primary→client on the same
	// QP pair, so ACK receives are posted on qpHead itself.
	g.qpHead.Connect(g.primary.qpClient)
	g.ack.qp = g.qpHead
	for j, b := range g.backups {
		g.primary.qpFwd[j].Connect(b.qpPrev)
		b.qpAck.Connect(g.primary.qpAckIn[j])
	}
	for seq := uint64(0); seq < uint64(p.Depth); seq++ {
		if err := g.armPrimary(seq); err != nil {
			return nil, fmt.Errorf("arm primary seq %d: %w", seq, err)
		}
		for j, b := range g.backups {
			if err := b.arm(seq); err != nil {
				return nil, fmt.Errorf("arm backup %d seq %d: %w", j+1, seq, err)
			}
		}
		g.ack.qp.PostRecv(rdma.RecvWQE{})
	}
	reArmOn(g.primary.qpClient.SendCQ(), g.Group, g.primary.nic, p.Depth, g.armPrimary)
	for _, b := range g.backups {
		reArmOn(b.qpAck.SendCQ(), g.Group, b.nic, p.Depth, b.arm)
	}
	g.ack.qp.RecvCQ().SetDrainHandler(g.ack.onAcks)
	return g, nil
}

func (g *FanoutGroup) setupClient() error {
	h := protocol.NewHost(g.client, g.params.MirrorSize)
	g.hosts = append(g.hosts, h)
	g.metaOff = h.Region("meta", g.params.Depth*g.metaLen())
	g.ack.carve(h, g.Group, g.params.Depth)
	g.qpHead = h.QP("head-ring", 2*g.params.Depth, nil, nil)
	return h.Err()
}

func (g *FanoutGroup) setupPrimary(nic *rdma.NIC) error {
	h := protocol.NewHost(nic, g.params.MirrorSize)
	g.hosts = append(g.hosts, h)
	p := &fanPrimary{nic: nic}
	b := g.numBackups()
	p.resultOff = h.Region("results", g.params.Depth*g.ack.slotLen())
	p.stagingOff = h.Region("staging", g.params.Depth*max(b, 1)*fanBackupMetaLen)
	p.mirror = h.MirrorMR()
	recvCQ, loopCQ := h.CQ(), h.CQ()
	p.qpClient = h.QP("client-ring", (max(b, 1)+1)*g.params.Depth, nil, recvCQ)
	p.qpLoop = h.QP("loop-ring", slotsPerOp*g.params.Depth, loopCQ, nil)
	for j := 0; j < b; j++ {
		p.qpFwd = append(p.qpFwd, h.QP(fmt.Sprintf("fwd-ring-%d", j), slotsPerOp*g.params.Depth, nil, nil))
		p.qpAckIn = append(p.qpAckIn, h.QP(fmt.Sprintf("ackin-ring-%d", j), 1, nil, h.CQ()))
	}
	if err := h.Err(); err != nil {
		return err
	}
	p.qpLoop.Connect(p.qpLoop)
	g.primary = p
	return nil
}

// Teardown is the fan-out's half of Close (protocol.Strategy): every QP
// and CQ the group created is destroyed so the NICs can host a new group.
func (g *FanoutGroup) Teardown() {
	for _, h := range g.hosts {
		h.Destroy()
	}
}
