package hyperloop

import (
	"encoding/binary"
	"fmt"

	"hyperloop/internal/nvm"
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
	// ReArmDelay is how long after an operation completes at a replica its
	// control path re-arms the chain for sequence seq+Depth. It is off the
	// critical path by construction.
	ReArmDelay sim.Duration
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
	return Config{
		MirrorSize: mirrorSize,
		Depth:      32,
		ReArmDelay: 5 * sim.Microsecond,
	}
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

	qpPrev *rdma.QP // from previous member (client for hop 1)
	qpNext *rdma.QP // to next member (to client's ACK QP for the tail)
	qpLoop *rdma.QP // loopback for local CAS/FLUSH

	recvCQ *rdma.CQ // completions of metadata receives from prev
	loopCQ *rdma.CQ // completions of L1/L2
	nextCQ *rdma.CQ // completions of F2 (drives re-arm)

	stagingOff  uint64
	stagingSlot int
	metaRest    int
	isTail      bool

	completed uint64 // ops completed at this replica (re-arm trigger)
}

// Group is a HyperLoop replication group: one client (transaction
// coordinator) chained through one or more replicas. The embedded
// protocol.Group is its protocol.Protocol surface (registered as "chain");
// this type is that group's strategy and adds ReadHead and the NIC
// accessors.
type Group struct {
	*protocol.Group

	fab *rdma.Fabric
	k   *sim.Kernel
	cfg Config
	lay layout

	client   *rdma.NIC
	qpHead   *rdma.QP // client → first replica
	qpAck    *rdma.QP // tail → client (group ACK)
	ackMR    *rdma.MemoryRegion
	ackOff   uint64
	metaOff  uint64 // client-side metadata build buffers
	replicas []*replica

	reads    map[uint64]*sim.Signal // WRID → signal for one-sided reads
	nextWRID uint64

	ackBuf  []byte   // onAck decode scratch, reused across ACKs
	ackRes  []uint64 // onAck result-map scratch; protocol.Group copies it
	metaBuf []byte   // Transmit's metadata build scratch; copied into client memory per op
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
	if cfg.Depth <= 0 {
		cfg.Depth = 32
	}
	// The ACK's imm carries only the low 32 bits of the sequence; a
	// power-of-two depth keeps slot arithmetic consistent across the
	// truncation.
	for cfg.Depth&(cfg.Depth-1) != 0 {
		cfg.Depth++
	}
	if cfg.ReArmDelay <= 0 {
		cfg.ReArmDelay = 5 * sim.Microsecond
	}
	return nil
}

// newSurface builds the protocol.Group a topology embeds: s is the
// topology itself, members its group size.
func newSurface(client *rdma.NIC, members int, cfg Config, s protocol.Strategy) *protocol.Group {
	return protocol.NewGroup(protocol.GroupConfig{
		Kernel: client.Fabric().Kernel(), Mirror: client.Memory(),
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
		fab:    fab,
		k:      fab.Kernel(),
		cfg:    cfg,
		lay:    layout{groupSize: len(replicas), depth: cfg.Depth},
		client: client,
		reads:  make(map[uint64]*sim.Signal),
		ackRes: make([]uint64, len(replicas)),
	}
	g.Group = newSurface(client, len(replicas), cfg, g)
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
		g.installReArm(r)
	}
	for i := 0; i < cfg.Depth; i++ {
		g.qpAck.PostRecv(rdma.RecvWQE{})
	}
	g.qpAck.RecvCQ().SetDrainHandler(g.onAcks)
	g.qpHead.SendCQ().SetDrainHandler(g.onClientSendCQEs)
	// Counter-only CQs: nothing consumes their entries, so don't retain.
	g.qpHead.RecvCQ().Discard()
	g.qpAck.SendCQ().Discard()
	return g, nil
}

// ringBytes returns the send-ring size for one chain ring.
func (g *Group) ringBytes() int { return slotsPerOp * g.cfg.Depth * rdma.WQESize }

func (g *Group) setupClient() error {
	dev := g.client.Memory()
	alloc := nvm.NewAllocator(dev)
	mirror, err := alloc.Alloc("mirror", g.cfg.MirrorSize)
	if err != nil {
		return err
	}
	if mirror.Off != 0 {
		return fmt.Errorf("hyperloop: client mirror not at offset 0")
	}
	meta, err := alloc.Alloc("meta", g.cfg.Depth*g.lay.metaLen(1))
	if err != nil {
		return err
	}
	ack, err := alloc.Alloc("ack", g.cfg.Depth*g.lay.ackSlotSize())
	if err != nil {
		return err
	}
	headRing, err := alloc.Alloc("head-ring", g.ringBytes()+2*rdma.WQESize)
	if err != nil {
		return err
	}
	ackRing, err := alloc.Alloc("ack-ring", rdma.WQESize)
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
		SendRingOff: uint64(headRing.Off),
		SendSlots:   headRing.Len / rdma.WQESize,
		SendCQ:      g.client.CreateCQ(),
		RecvCQ:      g.client.CreateCQ(),
	})
	if err != nil {
		return err
	}
	g.qpAck, err = g.client.CreateQP(rdma.QPConfig{
		SendRingOff: uint64(ackRing.Off),
		SendSlots:   1,
		SendCQ:      g.client.CreateCQ(),
		RecvCQ:      g.client.CreateCQ(),
	})
	return err
}

func (g *Group) setupReplica(index int, nic *rdma.NIC) (*replica, error) {
	r := &replica{index: index, nic: nic, isTail: index == g.lay.groupSize}
	r.metaRest = g.lay.metaRest(index)
	r.stagingSlot = r.metaRest
	if r.stagingSlot == 0 {
		r.stagingSlot = 1
	}
	dev := nic.Memory()
	alloc := nvm.NewAllocator(dev)
	mirror, err := alloc.Alloc("mirror", g.cfg.MirrorSize)
	if err != nil {
		return nil, err
	}
	if mirror.Off != 0 {
		return nil, fmt.Errorf("hyperloop: mirror not at offset 0")
	}
	staging, err := alloc.Alloc("staging", g.cfg.Depth*r.stagingSlot)
	if err != nil {
		return nil, err
	}
	prevRing, err := alloc.Alloc("prev-ring", rdma.WQESize)
	if err != nil {
		return nil, err
	}
	nextRing, err := alloc.Alloc("next-ring", g.ringBytes())
	if err != nil {
		return nil, err
	}
	loopRing, err := alloc.Alloc("loop-ring", g.ringBytes())
	if err != nil {
		return nil, err
	}
	r.stagingOff = uint64(staging.Off)
	// One MR with full rights covers the mirror: the previous hop WRITEs
	// into it, the local loopback FLUSHes (0-byte READ) and CASes it.
	r.mirror, err = nic.RegisterMR(0, uint64(g.cfg.MirrorSize),
		rdma.AccessRemoteRead|rdma.AccessRemoteWrite|rdma.AccessRemoteAtomic)
	if err != nil {
		return nil, err
	}
	r.recvCQ = nic.CreateCQ()
	r.loopCQ = nic.CreateCQ()
	r.nextCQ = nic.CreateCQ()
	r.qpPrev, err = nic.CreateQP(rdma.QPConfig{
		SendRingOff: uint64(prevRing.Off), SendSlots: 1,
		SendCQ: nic.CreateCQ(), RecvCQ: r.recvCQ,
	})
	if err != nil {
		return nil, err
	}
	r.qpNext, err = nic.CreateQP(rdma.QPConfig{
		SendRingOff: uint64(nextRing.Off), SendSlots: nextRing.Len / rdma.WQESize,
		SendCQ: r.nextCQ, RecvCQ: nic.CreateCQ(),
	})
	if err != nil {
		return nil, err
	}
	r.qpLoop, err = nic.CreateQP(rdma.QPConfig{
		SendRingOff: uint64(loopRing.Off), SendSlots: loopRing.Len / rdma.WQESize,
		SendCQ: r.loopCQ, RecvCQ: nic.CreateCQ(),
	})
	if err != nil {
		return nil, err
	}
	r.qpLoop.Connect(r.qpLoop) // loopback
	// recvCQ and loopCQ are pure WAIT targets, and the anonymous CQs are
	// never read at all; keep them as counters so the per-op completions
	// (several per chained WQE) don't accumulate for the whole run.
	r.recvCQ.Discard()
	r.loopCQ.Discard()
	r.qpPrev.SendCQ().Discard()
	r.qpNext.RecvCQ().Discard()
	r.qpLoop.RecvCQ().Discard()
	return r, nil
}

func (g *Group) connect() {
	g.qpHead.Connect(g.replicas[0].qpPrev)
	for i := 0; i < len(g.replicas)-1; i++ {
		g.replicas[i].qpNext.Connect(g.replicas[i+1].qpPrev)
	}
	g.replicas[len(g.replicas)-1].qpNext.Connect(g.qpAck)
}

// Teardown is the chain's half of Close (protocol.Strategy): pending
// one-sided reads fail with ErrClosed and every QP and CQ the group
// created is destroyed at the rdma layer; re-arm timers become no-ops
// because the group is closed. Closing the old group is mandatory before
// re-establishing one over surviving members (failover): both groups
// allocate their control rings at identical device offsets, so an
// abandoned group's still-parked QPs would wake on the successor's
// traffic, re-read the rewritten ring slots, and steal the successor's
// WAIT completions — its chains then stall forever on disowned WQEs.
func (g *Group) Teardown() {
	for wrid, sig := range g.reads {
		delete(g.reads, wrid)
		sig.Fire(ErrClosed)
	}
	qps := []*rdma.QP{g.qpHead, g.qpAck}
	for _, r := range g.replicas {
		qps = append(qps, r.qpPrev, r.qpNext, r.qpLoop)
	}
	for _, q := range qps {
		q.SendCQ().Destroy()
		q.RecvCQ().Destroy()
		q.Destroy()
	}
}

// ReplicaNIC returns the i-th (0-based) replica's NIC, e.g. for fault
// injection or direct memory inspection in tests.
func (g *Group) ReplicaNIC(i int) *rdma.NIC { return g.replicas[i].nic }

// ClientNIC returns the client's NIC.
func (g *Group) ClientNIC() *rdma.NIC { return g.client }

// onAcks handles a drained batch of group-ACK completions.
func (g *Group) onAcks(batch []rdma.CQE) {
	for _, e := range batch {
		g.onAck(e)
	}
}

// onAck handles the tail's WRITE_WITH_IMM: it carries the op's result
// block into the client's ACK buffer and its imm names the sequence.
func (g *Group) onAck(e rdma.CQE) {
	g.qpAck.PostRecv(rdma.RecvWQE{}) // keep the ACK window replenished
	slot := uint64(e.Imm) % uint64(g.cfg.Depth)
	slotAddr := int(g.ackOff) + int(slot)*g.lay.ackSlotSize()
	if cap(g.ackBuf) < g.lay.ackSlotSize() {
		g.ackBuf = make([]byte, g.lay.ackSlotSize())
	}
	buf := g.ackBuf[:g.lay.ackSlotSize()]
	if err := g.client.Memory().Read(slotAddr, buf); err != nil {
		return
	}
	for j := range g.ackRes {
		g.ackRes[j] = binary.LittleEndian.Uint64(buf[j*resultEntry:])
	}
	g.Complete(binary.LittleEndian.Uint64(buf[g.lay.resultsLen():]), g.ackRes)
}

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
