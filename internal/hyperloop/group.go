package hyperloop

import (
	"fmt"

	"hyperloop/internal/protocol"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
)

// Config parameterizes a replication group.
type Config struct {
	// MirrorSize is the size of the replicated memory region. Offsets in
	// group operations are relative to the mirror, which starts at device
	// offset 0 on every member (client included).
	MirrorSize int
	// Depth is the maximum number of in-flight operations (pre-armed WQE
	// chains per replica).
	Depth int
	// OpTimeout aborts an operation whose ACK does not arrive in time
	// (0 disables). Needed when replicas fail.
	OpTimeout sim.Duration
	// MaxRetries re-issues a blocking operation that failed with
	// ErrTimeout up to this many extra times (0 disables). Re-issue is
	// safe because gWRITE/gMEMCPY/gFLUSH are idempotent and each attempt
	// takes a fresh sequence number; gCAS is never retried.
	MaxRetries int
	// RetryBackoff is the linear backoff between retries: attempt k
	// sleeps k*RetryBackoff before re-issuing.
	RetryBackoff sim.Duration
	// AckQuorum applies to the broadcast protocol only: member acks
	// required to complete a write/memcpy/flush (0 = all members). gCAS
	// always waits for every member's ack, since it returns per-member
	// results. The chain and fan-out groups ignore this field.
	AckQuorum int
}

// DefaultConfig returns a config suitable for the benchmarks.
func DefaultConfig(mirrorSize int) Config {
	return Config{MirrorSize: mirrorSize, Depth: 32}
}

// Errors returned by group operations. Each wraps the corresponding
// canonical sentinel in internal/protocol, so errors.Is matches either.
var (
	ErrTooManyInFlight = protocol.WrapErr("hyperloop: operation window exceeded", protocol.ErrTooManyInFlight)
	ErrTimeout         = protocol.WrapErr("hyperloop: operation timed out", protocol.ErrTimeout)
	ErrBadArgument     = protocol.WrapErr("hyperloop: bad argument", protocol.ErrBadArgument)
	ErrClosed          = protocol.WrapErr("hyperloop: group closed", protocol.ErrClosed)
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
// protocol.Group is its protocol.Protocol surface (registered as "chain");
// this type is that group's strategy and adds ReadHead and the NIC
// accessors.
type Group struct {
	*protocol.Group

	cfg   Config
	lay   layout
	hosts []*protocol.Host

	client   *rdma.NIC
	qpHead   *rdma.QP // client → first replica
	ack      groupAck // tail → client
	metaOff  uint64   // client-side metadata build buffers
	replicas []*replica

	reads    map[uint64]*sim.Signal // WRID → signal for one-sided reads
	nextWRID uint64

	metaBuf []byte // Transmit's metadata build scratch; copied into client memory per op
}

// groupErrors hands this package's sentinels to protocol.Group.
var groupErrors = protocol.Errors{
	TooManyInFlight: ErrTooManyInFlight, Timeout: ErrTimeout,
	BadArgument: ErrBadArgument, Closed: ErrClosed,
}

// normalize validates the policy half of a Setup call and fills the
// defaults every topology shares.
func (cfg *Config) normalize(members int) error {
	if members == 0 {
		return fmt.Errorf("%w: need at least one member", ErrBadArgument)
	}
	if cfg.MirrorSize <= 0 {
		return fmt.Errorf("%w: mirror size must be positive", ErrBadArgument)
	}
	cfg.Depth = protocol.Window(cfg.Depth)
	return nil
}

// newSurface builds the protocol.Group a topology embeds: s is the
// topology itself, members its group size.
func newSurface(fab *rdma.Fabric, client *rdma.NIC, members int, cfg Config, s protocol.Strategy) *protocol.Group {
	return protocol.NewGroup(protocol.GroupConfig{
		Kernel: fab.Kernel(), Mirror: client.Memory(),
		GroupSize: members, MirrorSize: cfg.MirrorSize, Depth: cfg.Depth,
		OpTimeout: cfg.OpTimeout, MaxRetries: cfg.MaxRetries, RetryBackoff: cfg.RetryBackoff,
		Errors: groupErrors,
	}, s)
}

// Setup builds a group over the given NICs. Every device must be large
// enough for the mirror plus control structures; the mirror occupies
// [0, MirrorSize) on every member so group offsets are uniform.
func Setup(fab *rdma.Fabric, client *rdma.NIC, replicas []*rdma.NIC, cfg Config) (*Group, error) {
	if err := cfg.normalize(len(replicas)); err != nil {
		return nil, err
	}
	g := &Group{
		cfg:    cfg,
		lay:    layout{groupSize: len(replicas)},
		client: client,
		reads:  make(map[uint64]*sim.Signal),
	}
	g.Group = newSurface(fab, client, len(replicas), cfg, g)
	g.metaBuf = make([]byte, g.lay.metaLen(1))
	if err := g.setupClient(); err != nil {
		return nil, err
	}
	for i, nic := range replicas {
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
		for seq := uint64(0); seq < uint64(cfg.Depth); seq++ {
			if err := g.arm(r, seq); err != nil {
				return nil, fmt.Errorf("arm replica %d seq %d: %w", r.index, seq, err)
			}
		}
		reArmOn(r.qpNext.SendCQ(), g.Group, r.nic, cfg.Depth, func(seq uint64) error { return g.arm(r, seq) })
	}
	for i := 0; i < cfg.Depth; i++ {
		g.ack.qp.PostRecv(rdma.RecvWQE{})
	}
	g.ack.qp.RecvCQ().SetDrainHandler(g.ack.onAcks)
	g.qpHead.SendCQ().SetDrainHandler(g.onClientSendCQEs)
	return g, nil
}

func (g *Group) setupClient() error {
	h := protocol.NewHost(g.client, g.cfg.MirrorSize)
	g.hosts = append(g.hosts, h)
	g.metaOff = h.Region("meta", g.cfg.Depth*g.lay.metaLen(1))
	g.ack.carve(h, g.Group, g.cfg.Depth)
	g.qpHead = h.QP("head-ring", slotsPerOp*g.cfg.Depth+2, nil, nil)
	g.ack.qp = h.QP("ack-ring", 1, nil, nil)
	return h.Err()
}

func (g *Group) setupReplica(index int, nic *rdma.NIC) (*replica, error) {
	h := protocol.NewHost(nic, g.cfg.MirrorSize)
	g.hosts = append(g.hosts, h)
	r := &replica{index: index, nic: nic, isTail: index == g.lay.groupSize}
	r.metaRest = g.lay.metaRest(index)
	r.stagingSlot = max(r.metaRest, 1)
	r.stagingOff = h.Region("staging", g.cfg.Depth*r.stagingSlot)
	r.mirror = h.MirrorMR()
	recvCQ, loopCQ, nextCQ := h.CQ(), h.CQ(), h.CQ()
	r.qpPrev = h.QP("prev-ring", 1, nil, recvCQ)
	r.qpNext = h.QP("next-ring", slotsPerOp*g.cfg.Depth, nextCQ, nil)
	r.qpLoop = h.QP("loop-ring", slotsPerOp*g.cfg.Depth, loopCQ, nil)
	if err := h.Err(); err != nil {
		return nil, err
	}
	r.qpLoop.Connect(r.qpLoop) // loopback
	r.recv = make([][]rdma.SGE, g.cfg.Depth)
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

// Teardown is the chain's half of Close (protocol.Strategy): pending
// one-sided reads fail with ErrClosed and every QP and CQ the group
// created is destroyed at the rdma layer; re-arm timers become no-ops
// because the group is closed. A successor set up over the same NICs
// (failover) lays its rings out at the same device offsets, which is why
// protocol.NewHost refuses a NIC until its previous group is closed.
func (g *Group) Teardown() {
	for wrid, sig := range g.reads {
		delete(g.reads, wrid)
		sig.Fire(ErrClosed)
	}
	for _, h := range g.hosts {
		h.Destroy()
	}
}

// ReplicaNIC returns the i-th (0-based) replica's NIC, e.g. for fault
// injection or direct memory inspection in tests.
func (g *Group) ReplicaNIC(i int) *rdma.NIC { return g.replicas[i].nic }

// ClientNIC returns the client's NIC.
func (g *Group) ClientNIC() *rdma.NIC { return g.client }

// onClientSendCQEs resolves one-sided READs issued by the client.
func (g *Group) onClientSendCQEs(batch []rdma.CQE) {
	for _, e := range batch {
		g.onClientSendCQE(e)
	}
}

func (g *Group) onClientSendCQE(e rdma.CQE) {
	sig, ok := g.reads[e.WRID]
	if !ok {
		return
	}
	delete(g.reads, e.WRID)
	if e.Status != rdma.StatusSuccess {
		sig.Fire(fmt.Errorf("hyperloop: read failed: %v", e.Status))
		return
	}
	sig.Fire(nil)
}
