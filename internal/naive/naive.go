package naive

import (
	"encoding/binary"
	"fmt"

	"hyperloop/internal/cpusim"
	"hyperloop/internal/protocol"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
)

// Mode selects how replica CPUs pick up completions.
type Mode int

// Replica CPU modes.
const (
	ModeEvent Mode = iota + 1
	ModePolling
	ModePinned
)

// String returns the mode mnemonic.
func (m Mode) String() string {
	switch m {
	case ModeEvent:
		return "event"
	case ModePolling:
		return "polling"
	case ModePinned:
		return "pinned"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config is the baseline's replica-CPU cost model: how the replica
// handlers pick up completions and what their work costs. The group's
// policy (mirror, window, timeout/retry) is protocol.Params, as for every
// datapath; the wake penalty a handler pays for co-located tenants is its
// server's (cpusim.Scheduler.WakePenalty).
type Config struct {
	Mode Mode
	// RecvHandlerCPU is CPU time to take the completion, read the CQ and
	// parse the message.
	RecvHandlerCPU sim.Duration
	// PostCPU is CPU time per work request posted (forwarding, reposting
	// receives).
	PostCPU sim.Duration
	// CPUCopyBps is memcpy bandwidth when the CPU executes log records.
	CPUCopyBps float64
	// FlushBase/FlushPerLine model CPU-driven persistence (clwb+fence).
	FlushBase    sim.Duration
	FlushPerLine sim.Duration
}

// DefaultConfig returns calibrated costs (DESIGN.md), in event mode.
func DefaultConfig() Config {
	return Config{
		Mode:           ModeEvent,
		RecvHandlerCPU: 2 * sim.Microsecond,
		PostCPU:        1 * sim.Microsecond,
		CPUCopyBps:     6 * 8e9,
		FlushBase:      700 * sim.Nanosecond,
		FlushPerLine:   1 * sim.Nanosecond,
	}
}

// InMode is the Builder tune for replica mode m. A pinned handler is a
// dedicated tight polling loop that forwards in ~1µs per op (poll + parse
// + post), unlike the interrupt-driven handler, so ModePinned also sets
// those cheaper handler costs.
func InMode(m Mode) func(*Config) {
	return func(c *Config) {
		c.Mode = m
		if m == ModePinned {
			c.RecvHandlerCPU = 600 * sim.Nanosecond
			c.PostCPU = 200 * sim.Nanosecond
		}
	}
}

// The op encoding on the wire is the shared protocol one.
type opKind = protocol.OpKind

const (
	kindWrite  = protocol.KindWrite
	kindCAS    = protocol.KindCAS
	kindMemcpy = protocol.KindMemcpy
	kindFlush  = protocol.KindFlush
)

// Wire format: header (80 bytes) followed by the result map (8*G bytes).
const headerSize = 80

type opHeader struct {
	seq     uint64
	kind    opKind
	off     uint64
	size    uint64
	src     uint64
	dst     uint64
	old     uint64
	swp     uint64
	execMap uint64
	durable bool
}

func (h *opHeader) encode(buf []byte) {
	binary.LittleEndian.PutUint64(buf[0:], h.seq)
	binary.LittleEndian.PutUint32(buf[8:], uint32(h.kind))
	var d uint32
	if h.durable {
		d = 1
	}
	binary.LittleEndian.PutUint32(buf[12:], d)
	binary.LittleEndian.PutUint64(buf[16:], h.off)
	binary.LittleEndian.PutUint64(buf[24:], h.size)
	binary.LittleEndian.PutUint64(buf[32:], h.src)
	binary.LittleEndian.PutUint64(buf[40:], h.dst)
	binary.LittleEndian.PutUint64(buf[48:], h.old)
	binary.LittleEndian.PutUint64(buf[56:], h.swp)
	binary.LittleEndian.PutUint64(buf[64:], h.execMap)
}

func decodeHeader(buf []byte) opHeader {
	return opHeader{
		seq:     binary.LittleEndian.Uint64(buf[0:]),
		kind:    opKind(binary.LittleEndian.Uint32(buf[8:])),
		durable: binary.LittleEndian.Uint32(buf[12:]) == 1,
		off:     binary.LittleEndian.Uint64(buf[16:]),
		size:    binary.LittleEndian.Uint64(buf[24:]),
		src:     binary.LittleEndian.Uint64(buf[32:]),
		dst:     binary.LittleEndian.Uint64(buf[40:]),
		old:     binary.LittleEndian.Uint64(buf[48:]),
		swp:     binary.LittleEndian.Uint64(buf[56:]),
		execMap: binary.LittleEndian.Uint64(buf[64:]),
	}
}

type replica struct {
	index  int
	nic    *rdma.NIC
	proc   *cpusim.Proc
	mirror *rdma.MemoryRegion
	qpPrev *rdma.QP
	qpNext *rdma.QP
	recv   [][]rdma.SGE // metadata receive scatter list by slot % Depth

	stagingOff  uint64
	stagingSlot int
	isTail      bool
	g           *Group

	// Per-replica scratch, reused across handler invocations. Safe because
	// the one-runner invariant serializes all handlers on a kernel and no
	// buffer outlives the call that filled it.
	scratch []byte // staging-slot decode buffer
}

// Group is the Naive-RDMA replication chain. The embedded protocol.Group
// is its protocol.Protocol surface (registered as "naive", in ModeEvent),
// its policy and its NIC accessors; this type is that group's strategy
// and adds ReplicaHandlerCPU.
type Group struct {
	*protocol.Group

	cfg Config

	qpHead   *rdma.QP
	qpAck    *rdma.QP
	ackMR    *rdma.MemoryRegion
	ackOff   uint64
	metaOff  uint64
	replicas []*replica

	ackBuf  []byte   // onAck decode scratch, reused across ACKs
	ackRes  []uint64 // onAck result-map scratch; protocol.Group copies it
	metaBuf []byte   // Transmit's message build scratch; copied into client memory per op
}

func (g *Group) msgLen() int { return headerSize + 8*g.GroupSize() }

// Setup builds a naive chain over env's replicas with policy p and
// replica cost model cfg. env.Scheds[i] is the CPU scheduler of the
// machine hosting env.Replicas[i]; the replica's handler becomes one more
// tenant process there.
func Setup(env protocol.Env, p protocol.Params, cfg Config) (*Group, error) {
	p, err := p.Check(len(env.Replicas))
	if err == nil && len(env.Scheds) != len(env.Replicas) {
		err = fmt.Errorf("%w: need one CPU scheduler per replica", protocol.ErrBadArgument)
	}
	if err != nil {
		return nil, fmt.Errorf("naive: setup: %w", err)
	}
	if cfg.Mode == 0 {
		cfg.Mode = ModeEvent
	}
	g := &Group{cfg: cfg, ackRes: make([]uint64, len(env.Replicas))}
	g.Group = protocol.NewGroup(env, p, g)
	if err := g.setup(env); err != nil {
		g.Close()
		return nil, err
	}
	return g, nil
}

// Close tears the group down as protocol.Group.Close does and ends each
// replica's busy-poll loop (ModePolling): a closed group leaves no poller
// burning its machine's cores. A poll chunk already queued still runs.
func (g *Group) Close() {
	g.Group.Close()
	for _, r := range g.replicas {
		r.proc.SetRefill(nil)
	}
}

func (g *Group) setup(env protocol.Env) error {
	depth := g.Params().Depth
	g.metaBuf = make([]byte, g.msgLen())
	if err := g.setupClient(); err != nil {
		return err
	}
	for i, nic := range env.Replicas {
		r, err := g.setupReplica(i+1, nic, env.Scheds[i])
		if err != nil {
			return fmt.Errorf("replica %d: %w", i+1, err)
		}
		g.replicas = append(g.replicas, r)
	}
	g.qpHead.Connect(g.replicas[0].qpPrev)
	for i := 0; i < len(g.replicas)-1; i++ {
		g.replicas[i].qpNext.Connect(g.replicas[i+1].qpPrev)
	}
	g.replicas[len(g.replicas)-1].qpNext.Connect(g.qpAck)

	for _, r := range g.replicas {
		for i := 0; i < depth; i++ {
			r.postRecv(uint64(i))
		}
		r.install()
	}
	for i := 0; i < depth; i++ {
		g.qpAck.PostRecv(rdma.RecvWQE{})
	}
	g.qpAck.RecvCQ().SetDrainHandler(g.onAcks)
	return nil
}

func (g *Group) setupClient() error {
	depth := g.Params().Depth
	h := g.Host(g.ClientNIC())
	g.metaOff = h.Region("meta", depth*g.msgLen())
	g.ackOff = h.Region("ack", depth*g.msgLen())
	g.ackMR = h.MR(g.ackOff, depth*g.msgLen(), rdma.AccessRemoteWrite)
	g.qpHead = h.QP("head-ring", 2*depth, nil, nil)
	g.qpAck = h.QP("ack-ring", 1, nil, nil)
	return h.Err()
}

func (g *Group) setupReplica(index int, nic *rdma.NIC, sched *cpusim.Scheduler) (*replica, error) {
	p := g.Params()
	h := g.Host(nic)
	r := &replica{index: index, nic: nic, g: g, stagingSlot: g.msgLen()} // isTail finalized in install
	r.stagingOff = h.Region("staging", p.Depth*r.stagingSlot)
	r.mirror = h.MirrorMR()
	r.qpPrev = h.QP("prev-ring", 1, nil, nil)
	r.qpNext = h.QP("next-ring", 2*p.Depth, nil, nil)
	if err := h.Err(); err != nil {
		return nil, err
	}
	r.recv = make([][]rdma.SGE, p.Depth)
	for i := range r.recv {
		r.recv[i] = []rdma.SGE{{Addr: r.stagingAddr(uint64(i)), Len: uint64(g.msgLen())}}
	}
	r.proc = sched.NewProc(fmt.Sprintf("replica-%d", index))
	r.proc.SetWakePenalty(sched.WakePenalty()) // the tenants of its server
	switch g.cfg.Mode {
	case ModePinned:
		r.proc.Pin()
	case ModePolling:
		// Busy-poll loop sharing cores with the other tenants.
		r.proc.SetRefill(func() sim.Duration { return 50 * sim.Microsecond })
	}
	return r, nil
}

// install wires the replica's completion handler: every metadata receive
// becomes CPU work for the replica process, one work item per slot, idle
// again by the time the slot's next receive (posted by handle) completes.
func (r *replica) install() {
	r.isTail = r.index == len(r.g.replicas)
	depth := uint64(r.g.Params().Depth)
	wrids := make([]uint64, depth)
	work := make([]func(), depth)
	for i := range work {
		work[i] = func() { r.handle(wrids[i]) }
	}
	r.qpPrev.RecvCQ().SetDrainHandler(func(batch []rdma.CQE) {
		for _, e := range batch {
			if e.Status != rdma.StatusSuccess {
				continue
			}
			wrids[e.WRID%depth] = e.WRID
			r.proc.Submit(r.handlerCost(e.WRID), work[e.WRID%depth])
		}
	})
}

// handlerCost computes the CPU time the handler will consume for the
// message in the given staging slot — parse + execute + forward posts.
func (r *replica) handlerCost(slot uint64) sim.Duration {
	g := r.g
	cost := g.cfg.RecvHandlerCPU
	buf := r.stagingBuf(slot)
	h := decodeHeader(buf)
	switch h.kind {
	case kindWrite:
		if h.durable {
			cost += g.flushCost(int(h.size))
		}
	case kindMemcpy:
		cost += sim.Duration(float64(h.size) * 8 / g.cfg.CPUCopyBps * 1e9)
		if h.durable {
			cost += g.flushCost(int(h.size))
		}
	case kindCAS:
		cost += 200 * sim.Nanosecond
	case kindFlush:
		cost += g.flushCost(int(h.size))
	}
	// Forward posts (data + meta, or the ACK) and the receive repost.
	cost += 3 * g.cfg.PostCPU
	return cost
}

func (g *Group) flushCost(size int) sim.Duration {
	return g.cfg.FlushBase + sim.Duration(size/64+1)*g.cfg.FlushPerLine
}

func (r *replica) stagingBuf(slot uint64) []byte {
	g := r.g
	addr := int(r.stagingOff) + int(slot%uint64(g.Params().Depth))*r.stagingSlot
	if cap(r.scratch) < g.msgLen() {
		r.scratch = make([]byte, g.msgLen())
	}
	buf := r.scratch[:g.msgLen()]
	_ = r.nic.Memory().Read(addr, buf)
	return buf
}

func (r *replica) stagingAddr(slot uint64) uint64 {
	return r.stagingOff + (slot%uint64(r.g.Params().Depth))*uint64(r.stagingSlot)
}

// handle runs on the replica CPU once scheduled: execute the operation
// locally, update the result map, forward down the chain, repost the
// receive. This is precisely the work HyperLoop moves onto the NIC.
func (r *replica) handle(slot uint64) {
	g := r.g
	mem := r.nic.Memory()
	buf := r.stagingBuf(slot)
	h := decodeHeader(buf)

	switch h.kind {
	case kindWrite:
		if h.durable {
			_, _ = mem.Flush(int(h.off), int(h.size))
		}
	case kindMemcpy:
		_ = mem.Copy(int(h.dst), int(h.src), int(h.size))
		if h.durable {
			_, _ = mem.Flush(int(h.dst), int(h.size))
		}
	case kindCAS:
		if h.execMap&(1<<uint(r.index-1)) != 0 {
			cur, err := mem.Slice(int(h.off), 8)
			if err == nil {
				orig := binary.LittleEndian.Uint64(cur)
				if orig == h.old {
					var nb [8]byte
					binary.LittleEndian.PutUint64(nb[:], h.swp)
					_ = mem.Write(int(h.off), nb[:])
				}
				binary.LittleEndian.PutUint64(buf[headerSize+(r.index-1)*8:], orig)
			}
		}
	case kindFlush:
		_, _ = mem.Flush(int(h.off), int(h.size))
	}

	// Write the (possibly updated) message back to staging for forwarding.
	_ = mem.Write(int(r.stagingAddr(slot)), buf)

	if r.isTail {
		_, _ = r.qpNext.PostSend(rdma.WQE{
			Opcode: rdma.OpWriteImm, WRID: h.seq, Imm: uint32(h.seq),
			Local: r.stagingAddr(slot), Len: uint64(g.msgLen()),
			Remote: g.ackAddr(h.seq), Aux1: g.ackMR.RKey,
		})
	} else {
		next := g.replicas[r.index] // hop index+1, 0-based index
		if h.kind == kindWrite {
			_, _ = r.qpNext.PostSend(rdma.WQE{
				Opcode: rdma.OpWrite, WRID: h.seq,
				Local: h.off, Len: h.size, Remote: h.off, Aux1: next.mirror.RKey,
			})
		}
		_, _ = r.qpNext.PostSend(rdma.WQE{
			Opcode: rdma.OpSend, WRID: h.seq,
			Local: r.stagingAddr(slot), Len: uint64(g.msgLen()),
		})
	}
	r.postRecv(slot + uint64(g.Params().Depth))
}

func (r *replica) postRecv(slot uint64) {
	r.qpPrev.PostRecv(rdma.RecvWQE{WRID: slot, SGEs: r.recv[slot%uint64(r.g.Params().Depth)]})
}

func (g *Group) ackAddr(seq uint64) uint64 {
	return g.ackOff + (seq%uint64(g.Params().Depth))*uint64(g.msgLen())
}

// onAcks handles a drained batch of tail ACK completions.
func (g *Group) onAcks(batch []rdma.CQE) {
	for _, e := range batch {
		g.onAck(e)
	}
}

func (g *Group) onAck(e rdma.CQE) {
	g.qpAck.PostRecv(rdma.RecvWQE{})
	slotAddr := int(g.ackAddr(uint64(e.Imm)))
	if cap(g.ackBuf) < g.msgLen() {
		g.ackBuf = make([]byte, g.msgLen())
	}
	buf := g.ackBuf[:g.msgLen()]
	if err := g.ClientNIC().Memory().Read(slotAddr, buf); err != nil {
		return
	}
	for j := range g.ackRes {
		g.ackRes[j] = binary.LittleEndian.Uint64(buf[headerSize+j*8:])
	}
	g.Complete(decodeHeader(buf).seq, g.ackRes)
}
