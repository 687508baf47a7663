package hyperloop

import (
	"fmt"

	"hyperloop/internal/nvm"
	"hyperloop/internal/protocol"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
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

	fab *rdma.Fabric
	k   *sim.Kernel
	cfg Config

	client  *rdma.NIC
	qpHead  *rdma.QP
	qpAck   *rdma.QP // client side of the primary's client QP (ACK target)
	ackMR   *rdma.MemoryRegion
	ackOff  uint64
	metaOff uint64

	primary *fanPrimary
	backups []*leafMember

	ackBuf  []byte   // onAck decode scratch, reused across ACKs
	ackRes  []uint64 // onAck result-map scratch; protocol.Group copies it
	metaBuf []byte   // Transmit's metadata build scratch; copied into client memory per op
}

// fanPrimary holds the coordinator's NIC resources.
type fanPrimary struct {
	nic    *rdma.NIC
	mirror *rdma.MemoryRegion

	qpClient *rdma.QP // from client (metadata in, group ACK out)
	qpLoop   *rdma.QP
	qpFwd    []*rdma.QP // one per backup
	qpAckIn  []*rdma.QP // one per backup, ack receive side

	recvCQ *rdma.CQ   // metadata receives
	loopCQ *rdma.CQ   // L1/L2 completions
	ackCQs []*rdma.CQ // per-backup ack receive CQs

	resultOff   uint64 // per-op result blocks: [(1+B)*8 results][16 hdr]
	resultSlot  int
	stagingOff  uint64 // per-op per-backup forwarded metadata
	stagingSlot int

	completed uint64
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

func (g *FanoutGroup) resultSlotLen() int {
	return (1+g.numBackups())*resultEntry + headerSize
}

// SetupFanout builds a fan-out group: members[0] is the primary, the rest
// are backups. The same Config as the chain group applies.
func SetupFanout(fab *rdma.Fabric, client *rdma.NIC, members []*rdma.NIC, cfg Config) (*FanoutGroup, error) {
	if err := cfg.normalize(len(members)); err != nil {
		return nil, err
	}
	g := &FanoutGroup{
		fab:    fab,
		k:      fab.Kernel(),
		cfg:    cfg,
		client: client,
		ackRes: make([]uint64, len(members)),
	}
	g.Group = newSurface(client, len(members), cfg, g)
	g.backups = make([]*leafMember, len(members)-1) // metaLen needs the count
	g.metaBuf = make([]byte, g.metaLen())
	if err := g.setupClient(); err != nil {
		return nil, err
	}
	if err := g.setupPrimary(members[0]); err != nil {
		return nil, fmt.Errorf("primary: %w", err)
	}
	for j := range g.backups {
		b, err := setupLeafMember(members[j+1], cfg)
		if err != nil {
			return nil, fmt.Errorf("backup %d: %w", j+1, err)
		}
		g.backups[j] = b
	}
	// Wire: client ↔ primary; primary fwd_j ↔ backup j prev; backup ack ↔
	// primary ackIn_j.
	g.qpHead.Connect(g.primary.qpClient)
	// The ACK WRITE_IMM travels primary→client on the same QP pair; the
	// client's qpAck is an alias of qpHead's peer relationship, so ACK
	// receives are posted on qpHead itself.
	g.qpAck = g.qpHead
	for j, b := range g.backups {
		g.primary.qpFwd[j].Connect(b.qpPrev)
		b.qpAck.Connect(g.primary.qpAckIn[j])
	}
	for seq := uint64(0); seq < uint64(cfg.Depth); seq++ {
		if err := g.armPrimary(seq); err != nil {
			return nil, fmt.Errorf("arm primary seq %d: %w", seq, err)
		}
		for j, b := range g.backups {
			if err := b.arm(seq); err != nil {
				return nil, fmt.Errorf("arm backup %d seq %d: %w", j+1, seq, err)
			}
		}
		g.qpAck.PostRecv(rdma.RecvWQE{})
	}
	g.installFanReArm()
	g.qpAck.RecvCQ().SetDrainHandler(g.onAcks)
	g.qpHead.SendCQ().Discard() // client sends are unobserved
	return g, nil
}

func (g *FanoutGroup) setupClient() error {
	dev := g.client.Memory()
	alloc := nvm.NewAllocator(dev)
	mirror, err := alloc.Alloc("mirror", g.cfg.MirrorSize)
	if err != nil {
		return err
	}
	if mirror.Off != 0 {
		return fmt.Errorf("hyperloop: client mirror not at offset 0")
	}
	meta, err := alloc.Alloc("meta", g.cfg.Depth*g.metaLen())
	if err != nil {
		return err
	}
	ack, err := alloc.Alloc("ack", g.cfg.Depth*g.resultSlotLen())
	if err != nil {
		return err
	}
	ring, err := alloc.Alloc("head-ring", 2*g.cfg.Depth*rdma.WQESize)
	if err != nil {
		return err
	}
	g.metaOff = uint64(meta.Off)
	g.ackOff = uint64(ack.Off)
	g.ackMR, err = g.client.RegisterMR(uint64(ack.Off), uint64(ack.Len), rdma.AccessRemoteWrite)
	if err != nil {
		return err
	}
	g.qpHead, err = g.client.CreateQP(rdma.QPConfig{
		SendRingOff: uint64(ring.Off), SendSlots: ring.Len / rdma.WQESize,
		SendCQ: g.client.CreateCQ(), RecvCQ: g.client.CreateCQ(),
	})
	return err
}

func (g *FanoutGroup) setupPrimary(nic *rdma.NIC) error {
	p := &fanPrimary{nic: nic}
	b := g.numBackups()
	alloc := nvm.NewAllocator(nic.Memory())
	mirror, err := alloc.Alloc("mirror", g.cfg.MirrorSize)
	if err != nil {
		return err
	}
	if mirror.Off != 0 {
		return fmt.Errorf("hyperloop: primary mirror not at offset 0")
	}
	p.resultSlot = g.resultSlotLen()
	results, err := alloc.Alloc("results", g.cfg.Depth*p.resultSlot)
	if err != nil {
		return err
	}
	p.stagingSlot = fanBackupMetaLen
	staging, err := alloc.Alloc("staging", g.cfg.Depth*max(b, 1)*p.stagingSlot)
	if err != nil {
		return err
	}
	clientRing, err := alloc.Alloc("client-ring", (max(b, 1)+1)*g.cfg.Depth*rdma.WQESize)
	if err != nil {
		return err
	}
	loopRing, err := alloc.Alloc("loop-ring", 3*g.cfg.Depth*rdma.WQESize)
	if err != nil {
		return err
	}
	p.resultOff = uint64(results.Off)
	p.stagingOff = uint64(staging.Off)
	p.mirror, err = nic.RegisterMR(0, uint64(g.cfg.MirrorSize),
		rdma.AccessRemoteRead|rdma.AccessRemoteWrite|rdma.AccessRemoteAtomic)
	if err != nil {
		return err
	}
	p.recvCQ = nic.CreateCQ()
	p.loopCQ = nic.CreateCQ()
	p.qpClient, err = nic.CreateQP(rdma.QPConfig{
		SendRingOff: uint64(clientRing.Off), SendSlots: clientRing.Len / rdma.WQESize,
		SendCQ: nic.CreateCQ(), RecvCQ: p.recvCQ,
	})
	if err != nil {
		return err
	}
	p.qpLoop, err = nic.CreateQP(rdma.QPConfig{
		SendRingOff: uint64(loopRing.Off), SendSlots: loopRing.Len / rdma.WQESize,
		SendCQ: p.loopCQ, RecvCQ: nic.CreateCQ(),
	})
	if err != nil {
		return err
	}
	p.qpLoop.Connect(p.qpLoop)
	for j := 0; j < b; j++ {
		fwdRing, err := alloc.Alloc(fmt.Sprintf("fwd-ring-%d", j), 3*g.cfg.Depth*rdma.WQESize)
		if err != nil {
			return err
		}
		qp, err := nic.CreateQP(rdma.QPConfig{
			SendRingOff: uint64(fwdRing.Off), SendSlots: fwdRing.Len / rdma.WQESize,
			SendCQ: nic.CreateCQ(), RecvCQ: nic.CreateCQ(),
		})
		if err != nil {
			return err
		}
		p.qpFwd = append(p.qpFwd, qp)

		ackRing, err := alloc.Alloc(fmt.Sprintf("ackin-ring-%d", j), rdma.WQESize)
		if err != nil {
			return err
		}
		ackCQ := nic.CreateCQ()
		aqp, err := nic.CreateQP(rdma.QPConfig{
			SendRingOff: uint64(ackRing.Off), SendSlots: 1,
			SendCQ: nic.CreateCQ(), RecvCQ: ackCQ,
		})
		if err != nil {
			return err
		}
		p.qpAckIn = append(p.qpAckIn, aqp)
		p.ackCQs = append(p.ackCQs, ackCQ)
		// ackCQ is a pure WAIT_ABS target; the rest are never read.
		ackCQ.Discard()
		aqp.SendCQ().Discard()
		qp.SendCQ().Discard()
		qp.RecvCQ().Discard()
	}
	// recvCQ/loopCQ drive WAIT thresholds only; the loopback receive side
	// carries nothing. (qpClient's send CQ keeps entriesless drain mode via
	// installFanReArm.)
	p.recvCQ.Discard()
	p.loopCQ.Discard()
	p.qpLoop.RecvCQ().Discard()
	g.primary = p
	return nil
}
