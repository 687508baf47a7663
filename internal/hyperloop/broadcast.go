package hyperloop

import (
	"encoding/binary"
	"fmt"

	"hyperloop/internal/nvm"
	"hyperloop/internal/protocol"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
)

// BroadcastGroup is an ABD/Hermes-style NIC-offloaded broadcast: the
// client NIC fans the value and a per-member metadata message directly to
// every replica, each replica's NIC executes the operation through the
// same pre-posted WAIT-gated loopback chain a fan-out backup uses, and a
// hardware ack chain SENDs the result straight back to the client. The
// client completes the operation once a quorum of member acks has
// arrived (all members by default; Config.AckQuorum lowers it).
//
// Per member and operation the replica NIC runs, without CPU:
//
//	loopback QP:  [WAIT(recvCQ,1) → L1 → L2]      local ops
//	ack QP:       [WAIT(loopCQ,2) → SEND hdr+res]  ack to client
//
// Compared to the chain this trades message cost (2G messages per
// replicated write instead of hop-to-hop forwarding) and total order for
// the minimum possible completion path: one client→member hop plus one
// member→client hop, with no dependency between members. With
// AckQuorum < G a minority of slow or dead members no longer delays or
// blocks completion — the availability gap the protocols experiment
// measures. gCAS always waits for every member's ack, since its result
// map needs all G original values.
//
// Ordering caveat: without the chain's total order, two concurrent
// writers to the same range can complete in different orders at
// different members. The conformance suite drives it single-writer, the
// regime the paper's replicated-transaction use cases (one primary per
// log) put it in.
//
// The embedded protocol.Group is its protocol.Protocol surface (registered
// as "bcast" and "bcast-maj"); this type is that group's strategy.
type BroadcastGroup struct {
	*protocol.Group

	fab *rdma.Fabric
	k   *sim.Kernel
	cfg Config

	client  *rdma.NIC
	qpFan   []*rdma.QP // per-member data WRITE + metadata SEND
	qpAckIn []*rdma.QP // per-member ack receive side
	ackMR   *rdma.MemoryRegion
	ackOff  uint64 // client ack slots: per member, per depth slot
	metaOff uint64 // per-member per-op metadata staging

	members []*bcastMember

	acks map[uint64]*bcastAckState

	ackBuf []byte // ack decode scratch, reused across ACKs
	// bmeta is Transmit's per-member metadata build scratch; every byte is
	// rewritten for each member and copied into client memory.
	bmeta [fanBackupMetaLen]byte
}

// bcastMember holds one replica's NIC resources (the fan-out backup
// datapath, with the ack SEND aimed at the client instead of a primary).
type bcastMember struct {
	index  int
	nic    *rdma.NIC
	mirror *rdma.MemoryRegion

	qpPrev *rdma.QP // from client
	qpLoop *rdma.QP
	qpAck  *rdma.QP // to client

	recvCQ *rdma.CQ
	loopCQ *rdma.CQ

	ackOff  uint64 // per-op ack slots: [16 hdr][8 result]
	ackSlot int

	completed uint64
}

// bcastAckState accumulates member acks for one in-flight operation.
// The entry outlives a timeout (late acks still land) and is dropped
// once every member that was posted to has acked; with a dead member it
// leaks until Close — bounded by the operation window, and exactly the
// state a lease-based membership view would reap.
type bcastAckState struct {
	need    int // acks required to complete
	posted  int // members the op was actually sent to
	got     int
	results []uint64 // per-member CAS results, filled as acks arrive
	// seen dedups votes per member: under fault-induced chain shifts a
	// member can emit a stale ack carrying a seq it already acked, and a
	// quorum must count distinct members, not distinct messages.
	seen []bool
}

// SetupBroadcast builds a broadcast group over the given member NICs.
// The same Config as the chain group applies; AckQuorum selects the
// completion quorum (0 = all members).
func SetupBroadcast(fab *rdma.Fabric, client *rdma.NIC, members []*rdma.NIC, cfg Config) (*BroadcastGroup, error) {
	if err := cfg.normalize(len(members)); err != nil {
		return nil, err
	}
	if cfg.AckQuorum < 0 || cfg.AckQuorum > len(members) {
		return nil, fmt.Errorf("%w: ack quorum %d outside [0,%d]", ErrBadArgument, cfg.AckQuorum, len(members))
	}
	g := &BroadcastGroup{
		fab:    fab,
		k:      fab.Kernel(),
		cfg:    cfg,
		client: client,
		acks:   make(map[uint64]*bcastAckState),
	}
	g.Group = newSurface(client, len(members), cfg, g)
	if err := g.setupBcastClient(len(members)); err != nil {
		return nil, err
	}
	for i, nic := range members {
		m, err := g.setupMember(i, nic)
		if err != nil {
			return nil, fmt.Errorf("member %d: %w", i, err)
		}
		g.members = append(g.members, m)
	}
	for j, m := range g.members {
		g.qpFan[j].Connect(m.qpPrev)
		m.qpAck.Connect(g.qpAckIn[j])
	}
	for seq := uint64(0); seq < uint64(cfg.Depth); seq++ {
		for j, m := range g.members {
			if err := g.armMember(m, seq); err != nil {
				return nil, fmt.Errorf("arm member %d seq %d: %w", j, seq, err)
			}
			g.postAckRecv(j, seq)
		}
	}
	g.installBcastReArm()
	for j := range g.members {
		j := j
		g.qpAckIn[j].RecvCQ().SetDrainHandler(func(batch []rdma.CQE) {
			for _, e := range batch {
				g.onMemberAck(j, e)
			}
		})
	}
	return g, nil
}

func (g *BroadcastGroup) setupBcastClient(n int) error {
	alloc := nvm.NewAllocator(g.client.Memory())
	mirror, err := alloc.Alloc("mirror", g.cfg.MirrorSize)
	if err != nil {
		return err
	}
	if mirror.Off != 0 {
		return fmt.Errorf("hyperloop: client mirror not at offset 0")
	}
	meta, err := alloc.Alloc("meta", g.cfg.Depth*n*fanBackupMetaLen)
	if err != nil {
		return err
	}
	ack, err := alloc.Alloc("ack", g.cfg.Depth*n*fanAckLen)
	if err != nil {
		return err
	}
	g.metaOff = uint64(meta.Off)
	g.ackOff = uint64(ack.Off)
	g.ackMR, err = g.client.RegisterMR(uint64(ack.Off), uint64(ack.Len), rdma.AccessRemoteWrite)
	if err != nil {
		return err
	}
	for j := 0; j < n; j++ {
		fanRing, err := alloc.Alloc(fmt.Sprintf("fan-ring-%d", j), 2*g.cfg.Depth*rdma.WQESize)
		if err != nil {
			return err
		}
		qp, err := g.client.CreateQP(rdma.QPConfig{
			SendRingOff: uint64(fanRing.Off), SendSlots: fanRing.Len / rdma.WQESize,
			SendCQ: g.client.CreateCQ(), RecvCQ: g.client.CreateCQ(),
		})
		if err != nil {
			return err
		}
		qp.SendCQ().Discard()
		qp.RecvCQ().Discard()
		g.qpFan = append(g.qpFan, qp)

		ackRing, err := alloc.Alloc(fmt.Sprintf("ackin-ring-%d", j), rdma.WQESize)
		if err != nil {
			return err
		}
		aqp, err := g.client.CreateQP(rdma.QPConfig{
			SendRingOff: uint64(ackRing.Off), SendSlots: 1,
			SendCQ: g.client.CreateCQ(), RecvCQ: g.client.CreateCQ(),
		})
		if err != nil {
			return err
		}
		aqp.SendCQ().Discard()
		g.qpAckIn = append(g.qpAckIn, aqp)
	}
	return nil
}

// setupMember mirrors setupBackup: the member-side datapath is the same.
func (g *BroadcastGroup) setupMember(index int, nic *rdma.NIC) (*bcastMember, error) {
	m := &bcastMember{index: index, nic: nic}
	alloc := nvm.NewAllocator(nic.Memory())
	mirror, err := alloc.Alloc("mirror", g.cfg.MirrorSize)
	if err != nil {
		return nil, err
	}
	if mirror.Off != 0 {
		return nil, fmt.Errorf("hyperloop: member mirror not at offset 0")
	}
	m.ackSlot = fanAckLen
	ackBuf, err := alloc.Alloc("ack", g.cfg.Depth*m.ackSlot)
	if err != nil {
		return nil, err
	}
	prevRing, err := alloc.Alloc("prev-ring", rdma.WQESize)
	if err != nil {
		return nil, err
	}
	loopRing, err := alloc.Alloc("loop-ring", 3*g.cfg.Depth*rdma.WQESize)
	if err != nil {
		return nil, err
	}
	ackRing, err := alloc.Alloc("ack-ring", 2*g.cfg.Depth*rdma.WQESize)
	if err != nil {
		return nil, err
	}
	m.ackOff = uint64(ackBuf.Off)
	m.mirror, err = nic.RegisterMR(0, uint64(g.cfg.MirrorSize),
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
	m.recvCQ.Discard()
	m.loopCQ.Discard()
	m.qpPrev.SendCQ().Discard()
	m.qpLoop.RecvCQ().Discard()
	m.qpAck.RecvCQ().Discard()
	return m, nil
}

func (g *BroadcastGroup) memberAckAddr(m *bcastMember, seq uint64) uint64 {
	return m.ackOff + (seq%uint64(g.cfg.Depth))*uint64(m.ackSlot)
}

// clientAckAddr is member j's ack landing slot for op seq.
func (g *BroadcastGroup) clientAckAddr(j int, seq uint64) uint64 {
	return g.ackOff + (uint64(j)*uint64(g.cfg.Depth)+seq%uint64(g.cfg.Depth))*uint64(fanAckLen)
}

func (g *BroadcastGroup) bmetaAddr(j int, seq uint64) uint64 {
	n := uint64(len(g.members))
	return g.metaOff + ((seq%uint64(g.cfg.Depth))*n+uint64(j))*uint64(fanBackupMetaLen)
}

// armMember pre-posts one member's chains and receive for op seq —
// identical to a fan-out backup's arming.
func (g *BroadcastGroup) armMember(m *bcastMember, seq uint64) error {
	loopRing, loopSlots := m.qpLoop.RingOff(), m.qpLoop.RingSlots()
	ackAddr := g.memberAckAddr(m, seq)
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
	// Ack chain: both local ops done → SEND [hdr][result] to the client.
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

// postAckRecv posts the client-side receive for member j's op-seq ack.
func (g *BroadcastGroup) postAckRecv(j int, seq uint64) {
	g.qpAckIn[j].PostRecv(rdma.RecvWQE{
		WRID: seq,
		SGEs: []rdma.SGE{
			{Addr: g.clientAckAddr(j, seq), Len: headerSize},
			{Addr: g.clientAckAddr(j, seq) + headerSize, Len: resultEntry},
		},
	})
}

// installBcastReArm wires the off-critical-path member chain
// replenishment, driven by each member's ack-send completions.
func (g *BroadcastGroup) installBcastReArm() {
	for _, m := range g.members {
		m := m
		m.qpAck.SendCQ().SetDrainHandler(func(batch []rdma.CQE) {
			for range batch {
				seq := m.completed
				m.completed++
				reArmAfter(g.k, g.Group, m.nic, g.cfg.ReArmDelay, func() {
					_ = g.armMember(m, seq+uint64(g.cfg.Depth))
				})
			}
		})
	}
}

// Transmit is the broadcast's half of an issue (protocol.Strategy): per
// live member, an optional data WRITE plus the member's metadata message.
// Members whose NIC is down are skipped — modeling the lease-based
// membership view a quorum protocol runs under — so a crashed minority
// neither consumes ring slots nor retransmission timeouts on the fan QPs.
func (g *BroadcastGroup) Transmit(seq uint64, kind opKind, p opParams) error {
	n := len(g.members)

	// Stage every member's metadata before posting to any, so a build
	// error leaves no partial op behind.
	bmeta := g.bmeta[:]
	for j, m := range g.members {
		resultAddr := g.memberAckAddr(m, seq) + headerSize
		if err := encodeLocalBlock(bmeta, seq, kind, p, m.mirror.RKey, resultAddr, j); err != nil {
			return err
		}
		hdr := bmeta[2*rdma.DescLen:]
		binary.LittleEndian.PutUint64(hdr, seq)
		binary.LittleEndian.PutUint32(hdr[8:], uint32(kind))
		binary.LittleEndian.PutUint32(hdr[12:], 0)
		if err := g.client.Memory().Write(int(g.bmetaAddr(j, seq)), bmeta); err != nil {
			return err
		}
	}

	need := g.cfg.AckQuorum
	if need == 0 || kind == kindCAS {
		need = n // gCAS needs every member's original value
	}
	st := &bcastAckState{need: need, results: make([]uint64, n), seen: make([]bool, n)}
	g.acks[seq] = st
	for j, m := range g.members {
		if m.nic.Down() {
			continue
		}
		if kind == kindWrite {
			if _, err := g.qpFan[j].PostSend(rdma.WQE{
				Opcode: rdma.OpWrite, WRID: seq,
				Local: uint64(p.Off), Len: uint64(p.Size),
				Remote: uint64(p.Off), Aux1: m.mirror.RKey,
			}); err != nil {
				continue
			}
		}
		if _, err := g.qpFan[j].PostSend(rdma.WQE{
			Opcode: rdma.OpSend, WRID: seq,
			Local: g.bmetaAddr(j, seq), Len: uint64(fanBackupMetaLen),
		}); err != nil {
			continue
		}
		st.posted++
	}
	if st.posted == 0 {
		delete(g.acks, seq)
		return fmt.Errorf("%w: no reachable members", ErrBadArgument)
	}
	return nil
}

// onMemberAck resolves one member's ack for one operation.
func (g *BroadcastGroup) onMemberAck(j int, e rdma.CQE) {
	g.postAckRecv(j, e.WRID+uint64(g.cfg.Depth))
	if e.Status != rdma.StatusSuccess {
		return
	}
	if cap(g.ackBuf) < fanAckLen {
		g.ackBuf = make([]byte, fanAckLen)
	}
	buf := g.ackBuf[:fanAckLen]
	if err := g.client.Memory().Read(int(g.clientAckAddr(j, e.WRID)), buf); err != nil {
		return
	}
	seq := binary.LittleEndian.Uint64(buf)
	st, ok := g.acks[seq]
	if !ok || st.seen[j] {
		return
	}
	st.seen[j] = true
	st.results[j] = binary.LittleEndian.Uint64(buf[headerSize:])
	st.got++
	if st.got >= st.posted {
		delete(g.acks, seq)
	}
	if st.got == st.need {
		g.Complete(seq, st.results)
	}
}

// ReplicaNIC returns member i's NIC.
func (g *BroadcastGroup) ReplicaNIC(i int) *rdma.NIC { return g.members[i].nic }

// ClientNIC returns the client's NIC.
func (g *BroadcastGroup) ClientNIC() *rdma.NIC { return g.client }

// Teardown is the broadcast's half of Close (protocol.Strategy): the ack
// accumulators are dropped and every QP the group created is destroyed so
// the NICs can host a new group.
func (g *BroadcastGroup) Teardown() {
	g.acks = make(map[uint64]*bcastAckState)
	for _, qp := range g.qpFan {
		qp.Destroy()
	}
	for _, qp := range g.qpAckIn {
		qp.Destroy()
	}
	for _, m := range g.members {
		m.qpPrev.Destroy()
		m.qpLoop.Destroy()
		m.qpAck.Destroy()
	}
}
