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

	quorum int // member acks that complete a write/memcpy/flush

	qpFan   []*rdma.QP     // per-member data WRITE + metadata SEND
	qpAckIn []*rdma.QP     // per-member ack receive side
	ackRecv [][][]rdma.SGE // qpAckIn[j]'s scatter lists by seq % Depth
	ackOff  uint64         // client ack slots: per member, per depth slot
	metaOff uint64         // per-member per-op metadata staging
	members []*leafMember
	acks    []bcastAckState // by seq % Depth

	ackBuf [fanAckLen]byte // ack decode scratch, reused across ACKs
	// bmeta is Transmit's per-member metadata build scratch; every byte is
	// rewritten for each member and copied into client memory.
	bmeta [fanBackupMetaLen]byte
}

// bcastAckState accumulates member acks for the operation a window slot
// last carried. It outlives a timeout (late acks still land) and is
// retired once every member that was posted to has acked; with a dead
// member or a lost message it stays live until the slot's next operation
// takes it over, so at most Depth are ever live.
type bcastAckState struct {
	seq     uint64
	live    bool
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
// policy p. quorum is the completion quorum (0 = all members). A Setup
// that fails closes the group, so the NICs it claimed can host another.
func SetupBroadcast(env protocol.Env, p protocol.Params, quorum int) (*BroadcastGroup, error) {
	p, err := p.Check(len(env.Replicas))
	if err == nil && (quorum < 0 || quorum > len(env.Replicas)) {
		err = fmt.Errorf("%w: ack quorum %d outside [0,%d]", protocol.ErrBadArgument, quorum, len(env.Replicas))
	}
	if err != nil {
		return nil, fmt.Errorf("hyperloop: broadcast setup: %w", err)
	}
	g := &BroadcastGroup{quorum: quorum}
	g.Group = protocol.NewGroup(env, p, g)
	if err := g.setup(env); err != nil {
		g.Close()
		return nil, err
	}
	return g, nil
}

func (g *BroadcastGroup) setup(env protocol.Env) error {
	depth, n := g.Params().Depth, len(env.Replicas)
	g.acks = make([]bcastAckState, depth)
	for i := range g.acks {
		g.acks[i].results, g.acks[i].seen = make([]uint64, n), make([]bool, n)
	}
	if err := g.setupClient(n); err != nil {
		return err
	}
	for i, nic := range env.Replicas {
		m, err := setupLeafMember(g.Host(nic), depth)
		if err != nil {
			return fmt.Errorf("member %d: %w", i, err)
		}
		g.members = append(g.members, m)
	}
	for j, m := range g.members {
		g.qpFan[j].Connect(m.qpPrev)
		m.qpAck.Connect(g.qpAckIn[j])
	}
	for seq := uint64(0); seq < uint64(depth); seq++ {
		for j, m := range g.members {
			if err := m.arm(seq); err != nil {
				return fmt.Errorf("arm member %d seq %d: %w", j, seq, err)
			}
			g.postAckRecv(j, seq)
		}
	}
	for _, m := range g.members {
		reArmOn(m.qpAck.SendCQ(), g.Group, m.nic, depth, m.arm)
	}
	for j := range g.members {
		g.qpAckIn[j].RecvCQ().SetDrainHandler(func(batch []rdma.CQE) {
			for _, e := range batch {
				g.onMemberAck(j, e)
			}
		})
	}
	return nil
}

func (g *BroadcastGroup) setupClient(n int) error {
	depth := g.Params().Depth
	h := g.Host(g.ClientNIC())
	g.metaOff = h.Region("meta", depth*n*fanBackupMetaLen)
	g.ackOff = h.Region("ack", depth*n*fanAckLen)
	for j := 0; j < n; j++ {
		g.qpFan = append(g.qpFan, h.QP(fmt.Sprintf("fan-ring-%d", j), 2*depth, nil, nil))
		g.qpAckIn = append(g.qpAckIn, h.QP(fmt.Sprintf("ackin-ring-%d", j), 1, nil, nil))
		// Member j's ack lands as [hdr][result] in its slot.
		g.ackRecv = append(g.ackRecv, perSlot(depth, func(seq uint64) []rdma.SGE {
			return []rdma.SGE{
				{Addr: g.clientAckAddr(j, seq), Len: headerSize},
				{Addr: g.clientAckAddr(j, seq) + headerSize, Len: resultEntry},
			}
		}))
	}
	return h.Err()
}

// clientAckAddr is member j's ack landing slot for op seq.
func (g *BroadcastGroup) clientAckAddr(j int, seq uint64) uint64 {
	depth := uint64(g.Params().Depth)
	return g.ackOff + (uint64(j)*depth+seq%depth)*uint64(fanAckLen)
}

func (g *BroadcastGroup) bmetaAddr(j int, seq uint64) uint64 {
	n := uint64(len(g.members))
	return g.metaOff + ((seq%uint64(g.Params().Depth))*n+uint64(j))*uint64(fanBackupMetaLen)
}

// postAckRecv posts the client-side receive for member j's op-seq ack.
func (g *BroadcastGroup) postAckRecv(j int, seq uint64) {
	g.qpAckIn[j].PostRecv(rdma.RecvWQE{WRID: seq, SGEs: g.ackRecv[j][seq%uint64(g.Params().Depth)]})
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
		if err := g.ClientNIC().Memory().Write(int(g.bmetaAddr(j, seq)), bmeta); err != nil {
			return err
		}
	}

	st := &g.acks[seq%uint64(len(g.acks))]
	st.seq, st.live, st.need, st.posted, st.got = seq, true, g.quorum, 0, 0
	if st.need == 0 || kind == kindCAS {
		st.need = n // gCAS needs every member's original value
	}
	clear(st.results)
	clear(st.seen)
	for j, m := range g.members {
		if m.nic.Down() {
			continue
		}
		if postToHead(g.qpFan[j], seq, kind, p, m.mirror.RKey, g.bmetaAddr(j, seq), fanBackupMetaLen) == nil {
			st.posted++
		}
	}
	if st.posted == 0 {
		st.live = false
		return fmt.Errorf("%w: no reachable members", protocol.ErrBadArgument)
	}
	return nil
}

// onMemberAck resolves one member's ack for one operation.
func (g *BroadcastGroup) onMemberAck(j int, e rdma.CQE) {
	g.postAckRecv(j, e.WRID+uint64(g.Params().Depth))
	if e.Status != rdma.StatusSuccess {
		return
	}
	buf := g.ackBuf[:]
	if err := g.ClientNIC().Memory().Read(int(g.clientAckAddr(j, e.WRID)), buf); err != nil {
		return
	}
	seq := binary.LittleEndian.Uint64(buf)
	st := &g.acks[seq%uint64(len(g.acks))]
	if !st.live || st.seq != seq || st.seen[j] {
		return
	}
	st.seen[j] = true
	st.results[j] = binary.LittleEndian.Uint64(buf[headerSize:])
	st.got++
	if st.got >= st.posted {
		st.live = false
	}
	if st.got == st.need {
		g.Complete(seq, st.results)
	}
}
