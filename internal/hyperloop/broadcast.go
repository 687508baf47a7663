package hyperloop

import (
	"encoding/binary"
	"fmt"

	"hyperloop/internal/protocol"
	"hyperloop/internal/rdma"
)

// BroadcastGroup is an ABD/Hermes-style NIC-offloaded broadcast: the
// client NIC fans the value and a per-member metadata message directly to
// every replica, each replica's NIC executes the operation as a
// leafMember — the datapath a fan-out backup runs — and its hardware ack
// chain SENDs the result straight back to the client. The client
// completes the operation once a quorum of member acks has arrived (all
// members by default; SetupBroadcast's quorum argument lowers it).
//
// Compared to the chain this trades message cost (2G messages per
// replicated write instead of hop-to-hop forwarding) and total order for
// the minimum possible completion path: one client→member hop plus one
// member→client hop, with no dependency between members. With a
// quorum < G a minority of slow or dead members no longer delays or
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

	params protocol.Params // checked: Depth is the window
	quorum int             // member acks that complete a write/memcpy/flush
	hosts  []*protocol.Host

	client  *rdma.NIC
	qpFan   []*rdma.QP // per-member data WRITE + metadata SEND
	qpAckIn []*rdma.QP // per-member ack receive side
	ackOff  uint64     // client ack slots: per member, per depth slot
	metaOff uint64     // per-member per-op metadata staging

	members []*leafMember

	acks map[uint64]*bcastAckState

	ackBuf []byte // ack decode scratch, reused across ACKs
	// bmeta is Transmit's per-member metadata build scratch; every byte is
	// rewritten for each member and copied into client memory.
	bmeta [fanBackupMetaLen]byte
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

// SetupBroadcast builds a broadcast group over env's replicas with
// policy p. quorum is the completion quorum (0 = all members).
func SetupBroadcast(env protocol.Env, p protocol.Params, quorum int) (*BroadcastGroup, error) {
	p, err := p.Check(len(env.Replicas))
	if err == nil && (quorum < 0 || quorum > len(env.Replicas)) {
		err = fmt.Errorf("%w: ack quorum %d outside [0,%d]", protocol.ErrBadArgument, quorum, len(env.Replicas))
	}
	if err != nil {
		return nil, fmt.Errorf("hyperloop: broadcast setup: %w", err)
	}
	g := &BroadcastGroup{params: p, quorum: quorum, client: env.Client, acks: make(map[uint64]*bcastAckState)}
	g.Group = protocol.NewGroup(env, p, g)
	if err := g.setupClient(len(env.Replicas)); err != nil {
		return nil, err
	}
	for i, nic := range env.Replicas {
		h := protocol.NewHost(nic, p.MirrorSize)
		g.hosts = append(g.hosts, h)
		m, err := setupLeafMember(h, p.Depth)
		if err != nil {
			return nil, fmt.Errorf("member %d: %w", i, err)
		}
		g.members = append(g.members, m)
	}
	for j, m := range g.members {
		g.qpFan[j].Connect(m.qpPrev)
		m.qpAck.Connect(g.qpAckIn[j])
	}
	for seq := uint64(0); seq < uint64(p.Depth); seq++ {
		for j, m := range g.members {
			if err := m.arm(seq); err != nil {
				return nil, fmt.Errorf("arm member %d seq %d: %w", j, seq, err)
			}
			g.postAckRecv(j, seq)
		}
	}
	for _, m := range g.members {
		reArmOn(m.qpAck.SendCQ(), g.Group, m.nic, p.Depth, m.arm)
	}
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

func (g *BroadcastGroup) setupClient(n int) error {
	h := protocol.NewHost(g.client, g.params.MirrorSize)
	g.hosts = append(g.hosts, h)
	g.metaOff = h.Region("meta", g.params.Depth*n*fanBackupMetaLen)
	g.ackOff = h.Region("ack", g.params.Depth*n*fanAckLen)
	for j := 0; j < n; j++ {
		g.qpFan = append(g.qpFan, h.QP(fmt.Sprintf("fan-ring-%d", j), 2*g.params.Depth, nil, nil))
		g.qpAckIn = append(g.qpAckIn, h.QP(fmt.Sprintf("ackin-ring-%d", j), 1, nil, nil))
	}
	return h.Err()
}

// clientAckAddr is member j's ack landing slot for op seq.
func (g *BroadcastGroup) clientAckAddr(j int, seq uint64) uint64 {
	return g.ackOff + (uint64(j)*uint64(g.params.Depth)+seq%uint64(g.params.Depth))*uint64(fanAckLen)
}

func (g *BroadcastGroup) bmetaAddr(j int, seq uint64) uint64 {
	n := uint64(len(g.members))
	return g.metaOff + ((seq%uint64(g.params.Depth))*n+uint64(j))*uint64(fanBackupMetaLen)
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
		resultAddr := m.ackAddr(seq) + headerSize
		if err := encodeLocalBlock(bmeta, seq, kind, p, m.mirror.RKey, resultAddr, j); err != nil {
			return err
		}
		putHeader(bmeta[2*rdma.DescLen:], seq, kind)
		if err := g.client.Memory().Write(int(g.bmetaAddr(j, seq)), bmeta); err != nil {
			return err
		}
	}

	need := g.quorum
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
		return fmt.Errorf("%w: no reachable members", protocol.ErrBadArgument)
	}
	return nil
}

// onMemberAck resolves one member's ack for one operation.
func (g *BroadcastGroup) onMemberAck(j int, e rdma.CQE) {
	g.postAckRecv(j, e.WRID+uint64(g.params.Depth))
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

// Teardown is the broadcast's half of Close (protocol.Strategy): every QP
// and CQ the group created is destroyed so the NICs can host a new group.
func (g *BroadcastGroup) Teardown() {
	for _, h := range g.hosts {
		h.Destroy()
	}
}
