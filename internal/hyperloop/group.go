package hyperloop

import (
	"fmt"

	"hyperloop/internal/protocol"
	"hyperloop/internal/rdma"
)

// opKind is the shared wire encoding of the four primitives.
type opKind = protocol.OpKind

const (
	kindWrite  = protocol.KindWrite
	kindCAS    = protocol.KindCAS
	kindMemcpy = protocol.KindMemcpy
	kindFlush  = protocol.KindFlush
)

// replica holds one group member's NIC resources: the member core plus
// the next-hop QP its F1/F2 forward on.
type replica struct {
	member
	index  int      // 1-based hop number
	qpNext *rdma.QP // to next member (to client's ACK QP for the tail); its send CQ drives re-arm

	stagingOff  uint64
	stagingSlot int
	metaRest    int
	isTail      bool
}

// Group is a HyperLoop replication group: one client (transaction
// coordinator) chained through one or more replicas. The embedded
// protocol.Group is its protocol.Protocol surface (registered as "chain"),
// its policy and its NIC accessors; this type is that group's strategy.
type Group struct {
	*protocol.Group

	lay layout

	qpHead   *rdma.QP // client → first replica
	ack      groupAck // tail → client
	metaOff  uint64   // client-side metadata build buffers
	replicas []*replica

	metaBuf []byte // Transmit's metadata build scratch; copied into client memory per op
}

// Setup builds a chain over env's replicas, in hop order, with policy p.
// Every device must be large enough for the mirror plus control
// structures; the mirror occupies [0, p.MirrorSize) on every member so
// group offsets are uniform. A Setup that fails closes the group, so the
// NICs it claimed can host another.
func Setup(env protocol.Env, p protocol.Params) (*Group, error) {
	p, err := p.Check(len(env.Replicas))
	if err != nil {
		return nil, fmt.Errorf("hyperloop: chain setup: %w", err)
	}
	g := &Group{lay: layout{groupSize: len(env.Replicas)}}
	g.Group = protocol.NewGroup(env, p, g)
	if err := g.setup(env); err != nil {
		g.Close()
		return nil, err
	}
	return g, nil
}

func (g *Group) setup(env protocol.Env) error {
	depth := g.Params().Depth
	g.metaBuf = make([]byte, g.lay.metaLen(1))
	if err := g.setupClient(); err != nil {
		return err
	}
	for i, nic := range env.Replicas {
		r, err := g.setupReplica(i+1, nic)
		if err != nil {
			return fmt.Errorf("replica %d (%s): %w", i+1, nic.Host(), err)
		}
		g.replicas = append(g.replicas, r)
	}
	g.connect()
	// Arm the full window on every replica and post the client's ACK
	// receives. This is the only phase that involves member CPUs.
	for _, r := range g.replicas {
		for seq := uint64(0); seq < uint64(depth); seq++ {
			if err := g.arm(r, seq); err != nil {
				return fmt.Errorf("arm replica %d seq %d: %w", r.index, seq, err)
			}
		}
		reArmOn(r.qpNext.SendCQ(), g.Group, r.nic, depth, func(seq uint64) error { return g.arm(r, seq) })
	}
	for i := 0; i < depth; i++ {
		g.ack.qp.PostRecv(rdma.RecvWQE{})
	}
	g.ack.qp.RecvCQ().SetDrainHandler(g.ack.onAcks)
	return nil
}

func (g *Group) setupClient() error {
	depth := g.Params().Depth
	h := g.Host(g.ClientNIC())
	g.metaOff = h.Region("meta", depth*g.lay.metaLen(1))
	g.ack.carve(h, g.Group, depth)
	g.qpHead = h.QP("head-ring", slotsPerOp*depth+2, nil, nil)
	g.ack.qp = h.QP("ack-ring", 1, nil, nil)
	return h.Err()
}

func (g *Group) setupReplica(index int, nic *rdma.NIC) (*replica, error) {
	depth := g.Params().Depth
	h := g.Host(nic)
	r := &replica{member: member{nic: nic}, index: index, isTail: index == g.lay.groupSize}
	r.metaRest = g.lay.metaRest(index)
	r.stagingSlot = max(r.metaRest, 1)
	r.stagingOff = h.Region("staging", depth*r.stagingSlot)
	r.mirror = h.MirrorMR()
	recvCQ, loopCQ, nextCQ := h.CQ(), h.CQ(), h.CQ()
	r.qpPrev = h.QP("prev-ring", 1, nil, recvCQ)
	r.qpNext = h.QP("next-ring", slotsPerOp*depth, nextCQ, nil)
	r.qpLoop = h.QP("loop-ring", slotsPerOp*depth, loopCQ, nil)
	return r, r.finish(h, depth, func(seq uint64) []rdma.SGE { return g.recvSGEs(r, seq) })
}

func (g *Group) connect() {
	g.qpHead.Connect(g.replicas[0].qpPrev)
	for i := 0; i < len(g.replicas)-1; i++ {
		g.replicas[i].qpNext.Connect(g.replicas[i+1].qpPrev)
	}
	g.replicas[len(g.replicas)-1].qpNext.Connect(g.ack.qp)
}
