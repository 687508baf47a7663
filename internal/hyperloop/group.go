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

// replica holds one group member's NIC resources.
type replica struct {
	index  int // 1-based hop number
	nic    *rdma.NIC
	mirror *rdma.MemoryRegion

	qpPrev *rdma.QP     // from previous member (client for hop 1); its recv CQ gates L1/L2
	qpNext *rdma.QP     // to next member (to client's ACK QP for the tail); its send CQ drives re-arm
	qpLoop *rdma.QP     // loopback for local CAS/FLUSH; its send CQ gates F1/F2
	recv   [][]rdma.SGE // qpPrev's scatter lists by seq % Depth (recvSGEs)

	stagingOff  uint64
	stagingSlot int
	metaRest    int
	isTail      bool
}

// Group is a HyperLoop replication group: one client (transaction
// coordinator) chained through one or more replicas. The embedded
// protocol.Group is its protocol.Protocol surface (registered as "chain")
// and its NIC accessors; this type is that group's strategy.
type Group struct {
	*protocol.Group

	params protocol.Params // checked: Depth is the window
	lay    layout
	hosts  []*protocol.Host

	client   *rdma.NIC
	qpHead   *rdma.QP // client → first replica
	ack      groupAck // tail → client
	metaOff  uint64   // client-side metadata build buffers
	replicas []*replica

	metaBuf []byte // Transmit's metadata build scratch; copied into client memory per op
}

// Setup builds a chain over env's replicas, in hop order, with policy p.
// Every device must be large enough for the mirror plus control
// structures; the mirror occupies [0, p.MirrorSize) on every member so
// group offsets are uniform.
func Setup(env protocol.Env, p protocol.Params) (*Group, error) {
	p, err := p.Check(len(env.Replicas))
	if err != nil {
		return nil, fmt.Errorf("hyperloop: chain setup: %w", err)
	}
	g := &Group{
		params: p,
		lay:    layout{groupSize: len(env.Replicas)},
		client: env.Client,
	}
	g.Group = protocol.NewGroup(env, p, g)
	g.metaBuf = make([]byte, g.lay.metaLen(1))
	if err := g.setupClient(); err != nil {
		return nil, err
	}
	for i, nic := range env.Replicas {
		r, err := g.setupReplica(i+1, nic)
		if err != nil {
			return nil, fmt.Errorf("replica %d (%s): %w", i+1, nic.Host(), err)
		}
		g.replicas = append(g.replicas, r)
	}
	g.connect()
	// Arm the full window on every replica and post the client's ACK
	// receives. This is the only phase that involves member CPUs.
	for _, r := range g.replicas {
		for seq := uint64(0); seq < uint64(p.Depth); seq++ {
			if err := g.arm(r, seq); err != nil {
				return nil, fmt.Errorf("arm replica %d seq %d: %w", r.index, seq, err)
			}
		}
		reArmOn(r.qpNext.SendCQ(), g.Group, r.nic, p.Depth, func(seq uint64) error { return g.arm(r, seq) })
	}
	for i := 0; i < p.Depth; i++ {
		g.ack.qp.PostRecv(rdma.RecvWQE{})
	}
	g.ack.qp.RecvCQ().SetDrainHandler(g.ack.onAcks)
	return g, nil
}

func (g *Group) setupClient() error {
	h := protocol.NewHost(g.client, g.params.MirrorSize)
	g.hosts = append(g.hosts, h)
	g.metaOff = h.Region("meta", g.params.Depth*g.lay.metaLen(1))
	g.ack.carve(h, g.Group, g.params.Depth)
	g.qpHead = h.QP("head-ring", slotsPerOp*g.params.Depth+2, nil, nil)
	g.ack.qp = h.QP("ack-ring", 1, nil, nil)
	return h.Err()
}

func (g *Group) setupReplica(index int, nic *rdma.NIC) (*replica, error) {
	h := protocol.NewHost(nic, g.params.MirrorSize)
	g.hosts = append(g.hosts, h)
	r := &replica{index: index, nic: nic, isTail: index == g.lay.groupSize}
	r.metaRest = g.lay.metaRest(index)
	r.stagingSlot = max(r.metaRest, 1)
	r.stagingOff = h.Region("staging", g.params.Depth*r.stagingSlot)
	r.mirror = h.MirrorMR()
	recvCQ, loopCQ, nextCQ := h.CQ(), h.CQ(), h.CQ()
	r.qpPrev = h.QP("prev-ring", 1, nil, recvCQ)
	r.qpNext = h.QP("next-ring", slotsPerOp*g.params.Depth, nextCQ, nil)
	r.qpLoop = h.QP("loop-ring", slotsPerOp*g.params.Depth, loopCQ, nil)
	if err := h.Err(); err != nil {
		return nil, err
	}
	r.qpLoop.Connect(r.qpLoop) // loopback
	r.recv = make([][]rdma.SGE, g.params.Depth)
	for i := range r.recv {
		r.recv[i] = g.recvSGEs(r, uint64(i))
	}
	return r, nil
}

func (g *Group) connect() {
	g.qpHead.Connect(g.replicas[0].qpPrev)
	for i := 0; i < len(g.replicas)-1; i++ {
		g.replicas[i].qpNext.Connect(g.replicas[i+1].qpPrev)
	}
	g.replicas[len(g.replicas)-1].qpNext.Connect(g.ack.qp)
}

// Teardown is the chain's half of Close (protocol.Strategy): every QP and
// CQ the group created is destroyed at the rdma layer; re-arm timers
// become no-ops because the group is closed. A successor set up over the
// same NICs (failover) lays its rings out at the same device offsets,
// which is why protocol.NewHost refuses a NIC until its previous group is
// closed.
func (g *Group) Teardown() {
	for _, h := range g.hosts {
		h.Destroy()
	}
}
