package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"hyperloop/internal/nvm"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
)

// OpKind distinguishes the four group primitives on the wire. The values
// are the shared op encoding: every protocol's metadata header carries
// them as a little-endian uint32.
type OpKind uint32

// The group primitives.
const (
	KindWrite OpKind = iota + 1
	KindCAS
	KindMemcpy
	KindFlush
)

// Op carries one operation's arguments through validation, the
// client-side local apply and the strategy's metadata building. gWRITE,
// gFLUSH and gCAS use Off/Size (Size is 8 for gCAS); gMEMCPY uses
// Src/Dst/Size.
type Op struct {
	Off, Size int
	Src, Dst  int
	Old, New  uint64
	Exec      []bool
	Durable   bool
}

// Strategy is the datapath half of a replication protocol: what differs
// between chain, fan-out, broadcast and naive once the QPs exist. Group
// calls it; nothing else should.
type Strategy interface {
	// Transmit builds op's metadata under seq and posts it. Group has
	// already validated the arguments, armed the timeout and applied the
	// op to the client's mirror; an error makes Group abort seq. When the
	// group's ack for seq arrives the strategy calls Group.Complete.
	Transmit(seq uint64, kind OpKind, op Op) error
}

// Window returns the number of pre-posted operation slots a group runs
// with when depth slots are asked for: 32 when depth is unset, otherwise
// depth rounded up to a power of two. An ACK's imm carries only the low
// 32 bits of the sequence, and a power-of-two depth keeps slot arithmetic
// consistent across that truncation.
func Window(depth int) int {
	if depth <= 0 {
		return 32
	}
	w := 1
	for w < depth {
		w <<= 1
	}
	return w
}

// pending is a client-issued operation awaiting its group ACK. Each window
// slot (seq % Depth) recycles one for the op it next carries, unless an
// Await has yet to return its signal: then the slot takes a fresh one. Ops
// that complete in order, for callers that await their posts, recycle.
type pending struct {
	sig     sim.Signal
	seq     uint64
	cas     bool
	results []uint64
	timer   sim.Timer
	expire  func() // the timeout callback, built once per pending
}

// Group is the one implementation of Protocol. It owns everything the
// four primitives have in common — client mirror access, argument
// validation, sequence numbers, the in-flight window, per-op timeout
// timers, the retry loop, the local apply, the counters, the Hosts its
// NICs are carved through and Close — and drives a Strategy for the rest.
// It schedules kernel events only when a timeout is configured.
type Group struct {
	env      Env
	p        Params // checked: Depth is the window
	k        *sim.Kernel
	mirror   *nvm.Device // the client's device; the mirror is [0, p.MirrorSize)
	strategy Strategy
	hosts    []*Host // every NIC share the strategy carved, in Host order

	nextSeq  uint64
	inflight map[uint64]*pending
	slots    []*pending // by seq % Depth

	issued    int64
	completed int64
	retries   int64
	closed    bool
}

// NewGroup builds the group a strategy s drives over env's client and
// replicas (in member order) with policy p, which Check has already
// validated. Concrete protocol types embed the result, which is how they
// satisfy Protocol; s may finish setting up its queues afterwards.
func NewGroup(env Env, p Params, s Strategy) *Group {
	env.Replicas = slices.Clone(env.Replicas) // members are fixed at setup; failover rebuilds
	return &Group{env: env, p: p, k: env.Fabric.Kernel(), mirror: env.Client.Memory(),
		strategy: s, inflight: make(map[uint64]*pending), slots: make([]*pending, max(p.Depth, 1))}
}

// Host claims nic for the group: NewHost with the group's mirror size,
// recorded so that Close destroys what the strategy carves from it.
func (g *Group) Host(nic *rdma.NIC) *Host {
	h := NewHost(nic, g.p.MirrorSize)
	g.hosts = append(g.hosts, h)
	return h
}

// inMirror reports whether [off, off+size) lies inside the mirror; it
// cannot overflow, and rejects negative offsets and sizes.
func (g *Group) inMirror(off, size int) bool {
	return off >= 0 && size >= 0 && off <= g.p.MirrorSize-size
}

// check validates an operation's arguments before a sequence number is
// consumed.
func (g *Group) check(kind OpKind, op Op) error {
	switch {
	case kind == KindMemcpy:
		if !g.inMirror(op.Src, op.Size) || !g.inMirror(op.Dst, op.Size) {
			return fmt.Errorf("%w: memcpy %d→%d (+%d) outside mirror", ErrBadArgument, op.Src, op.Dst, op.Size)
		}
	case !g.inMirror(op.Off, op.Size):
		return fmt.Errorf("%w: range [%d,+%d) outside mirror", ErrBadArgument, op.Off, op.Size)
	case kind == KindCAS && len(op.Exec) != len(g.env.Replicas):
		return fmt.Errorf("%w: execute map must have %d entries", ErrBadArgument, len(g.env.Replicas))
	}
	return nil
}

// issue is the single path every group operation takes to the wire:
// closed → window → arguments → sequence number → timeout timer → local
// apply → transmit. The timer is a kernel event, so it is armed before
// the strategy rings any doorbell; that order is part of the
// deterministic event stream.
func (g *Group) issue(kind OpKind, op Op) (*pending, error) {
	if g.closed {
		return nil, ErrClosed
	}
	// Two window slots stay reserved so the pre-armed chains for sequence
	// seq+Depth are always re-armed before seq wraps onto their ring slots.
	if len(g.inflight) >= g.p.Depth-2 {
		return nil, ErrTooManyInFlight
	}
	if err := g.check(kind, op); err != nil {
		return nil, err
	}
	seq := g.nextSeq
	g.nextSeq++
	i := seq % uint64(len(g.slots))
	if p := g.slots[i]; p == nil || !p.sig.Awaited() {
		p = &pending{}
		p.expire = func() {
			if g.resolve(p.seq) == p {
				p.sig.Fire(ErrTimeout)
			}
		}
		g.slots[i] = p
	}
	p := g.slots[i]
	p.seq, p.cas, p.sig = seq, kind == KindCAS, sim.Signal{}
	g.inflight[seq] = p
	if g.p.OpTimeout > 0 {
		g.k.AfterFunc(g.p.OpTimeout, p.expire, &p.timer)
	}
	err := ApplyLocal(g.mirror, kind, op)
	if err == nil {
		err = g.strategy.Transmit(seq, kind, op)
	}
	if err != nil {
		g.resolve(seq) // free the window slot; nothing was counted
		return nil, err
	}
	g.issued++
	return p, nil
}

// resolve removes seq from the window and stops its timer, returning the
// pending op, or nil when a timeout or Close already resolved it.
func (g *Group) resolve(seq uint64) *pending {
	p, ok := g.inflight[seq]
	if !ok {
		return nil
	}
	delete(g.inflight, seq)
	p.timer.Stop()
	return p
}

// Complete is the strategy's ack report: the group ACK (or ack quorum)
// for seq arrived, with one original value per member for a gCAS. results
// is copied, so the caller may reuse it; it is ignored for other kinds. A
// late ack — after a timeout or Close resolved the op — is dropped.
func (g *Group) Complete(seq uint64, results []uint64) {
	p := g.resolve(seq)
	if p == nil {
		return
	}
	g.completed++
	if p.cas {
		p.results = append(p.results[:0], results...)
	}
	p.sig.Fire(nil)
}

// await issues an idempotent operation and waits for it, re-issuing under
// a fresh sequence number on timeout up to MaxRetries extra attempts with
// linear backoff.
func (g *Group) await(f *sim.Fiber, kind OpKind, op Op) error {
	for attempt := 0; ; attempt++ {
		p, err := g.issue(kind, op)
		if err == nil {
			err = f.Await(&p.sig)
		}
		if err == nil || !errors.Is(err, ErrTimeout) || attempt >= g.p.MaxRetries {
			return err
		}
		g.retries++
		if g.p.RetryBackoff > 0 {
			f.Sleep(g.p.RetryBackoff * sim.Duration(attempt+1))
		}
	}
}

func (g *Group) async(kind OpKind, op Op) (*sim.Signal, error) {
	p, err := g.issue(kind, op)
	if err != nil {
		return nil, err
	}
	return &p.sig, nil
}

// WriteLocal stores data into the client's mirror; the usual pattern is
// WriteLocal followed by Write to replicate the range.
func (g *Group) WriteLocal(off int, data []byte) error {
	if !g.inMirror(off, len(data)) {
		return fmt.Errorf("%w: local write outside mirror", ErrBadArgument)
	}
	return g.mirror.Write(off, data)
}

// ViewLocal returns the client's mirror range (nvm.Device.Slice): read-only,
// valid until the caller next yields to the kernel or, for a range that
// crosses a device page, until the next ViewLocal.
func (g *Group) ViewLocal(off, n int) ([]byte, error) {
	if !g.inMirror(off, n) {
		return nil, fmt.Errorf("%w: local read outside mirror", ErrBadArgument)
	}
	return g.mirror.Slice(off, n)
}

// WriteAsync replicates [off, off+size) of the mirror to every member
// (gWRITE), optionally durable on each. The signal fires on the group ACK;
// it is the group's, recycled for a later op once an Await has returned
// it, so the caller awaits it at most once and drops it afterwards.
func (g *Group) WriteAsync(off, size int, durable bool) (*sim.Signal, error) {
	return g.async(KindWrite, Op{Off: off, Size: size, Durable: durable})
}

// Write is the blocking form of WriteAsync. With MaxRetries > 0 a
// timed-out write is re-issued under a fresh sequence number.
func (g *Group) Write(f *sim.Fiber, off, size int, durable bool) error {
	return g.await(f, KindWrite, Op{Off: off, Size: size, Durable: durable})
}

// MemcpyAsync copies [src, src+size) to [dst, dst+size) locally on every
// member (gMEMCPY) — the log-execution step.
func (g *Group) MemcpyAsync(src, dst, size int, durable bool) (*sim.Signal, error) {
	return g.async(KindMemcpy, Op{Src: src, Dst: dst, Size: size, Durable: durable})
}

// Memcpy is the blocking form of MemcpyAsync, with Write's retry policy
// (gMEMCPY is idempotent).
func (g *Group) Memcpy(f *sim.Fiber, src, dst, size int, durable bool) error {
	return g.await(f, KindMemcpy, Op{Src: src, Dst: dst, Size: size, Durable: durable})
}

// CAS performs a group compare-and-swap (gCAS) of the 8-byte word at off
// on every member whose execute-map entry is true, returning the original
// value observed at each; entries for skipped members are zero. gCAS is
// never retried. The result slice is the group's, valid until the caller
// next yields.
func (g *Group) CAS(f *sim.Fiber, off int, old, new uint64, exec []bool) ([]uint64, error) {
	p, err := g.issue(KindCAS, Op{Off: off, Size: 8, Old: old, New: new, Exec: exec})
	if err != nil {
		return nil, err
	}
	if err := f.Await(&p.sig); err != nil {
		return nil, err
	}
	return p.results, nil
}

// FlushAsync makes [off, off+size) durable on every member (gFLUSH).
func (g *Group) FlushAsync(off, size int) (*sim.Signal, error) {
	return g.async(KindFlush, Op{Off: off, Size: size})
}

// Flush is the blocking form of FlushAsync, with Write's retry policy
// (gFLUSH is idempotent).
func (g *Group) Flush(f *sim.Fiber, off, size int) error {
	return g.await(f, KindFlush, Op{Off: off, Size: size})
}

// Params returns the group's checked policy: Depth is the window.
func (g *Group) Params() Params { return g.p }

// GroupSize returns the number of replicated members.
func (g *Group) GroupSize() int { return len(g.env.Replicas) }

// ReplicaNIC returns member i's NIC (0-based, in the order Env.Replicas
// gave them), e.g. for fault injection or direct memory inspection.
func (g *Group) ReplicaNIC(i int) *rdma.NIC { return g.env.Replicas[i] }

// ClientNIC returns the client's NIC.
func (g *Group) ClientNIC() *rdma.NIC { return g.env.Client }

// InFlight returns operations awaiting their group ACK.
func (g *Group) InFlight() int { return len(g.inflight) }

// Stats reports operations issued and completed.
func (g *Group) Stats() (issued, completed int64) { return g.issued, g.completed }

// Retried reports timed-out operations re-issued by the blocking paths.
func (g *Group) Retried() int64 { return g.retries }

// Closed reports whether Close ran. Strategies check it in control-path
// callbacks (chain re-arm) that can fire after teardown.
func (g *Group) Closed() bool { return g.closed }

// Close fails every in-flight operation with ErrClosed — in
// issue order, so the order the waiting fibers resume in is a function of
// the seed and not of map iteration — rejects further issues and destroys
// every QP and CQ of every Host the group carved, which returns the NICs
// to service for the next group. A Setup that fails closes its group too.
// Safe to call twice.
func (g *Group) Close() {
	if g.closed {
		return
	}
	g.closed = true
	seqs := make([]uint64, 0, len(g.inflight))
	for seq := range g.inflight {
		seqs = append(seqs, seq)
	}
	slices.Sort(seqs)
	for _, seq := range seqs {
		g.resolve(seq).sig.Fire(ErrClosed)
	}
	for _, h := range g.hosts {
		h.Destroy()
	}
}

// ApplyLocal mirrors an operation on the client's own copy, exactly as
// §4.1 prescribes: the client performs the memory operation in its own
// region while the replica NICs (or CPUs) perform the same operation in
// theirs. Durability of the client's copy is the client CPU's job.
func ApplyLocal(mem *nvm.Device, kind OpKind, p Op) error {
	switch kind {
	case KindWrite, KindFlush:
		if p.Durable || kind == KindFlush {
			if _, err := mem.Flush(p.Off, p.Size); err != nil {
				return err
			}
		}
	case KindMemcpy:
		if err := mem.Copy(p.Dst, p.Src, p.Size); err != nil {
			return err
		}
		if p.Durable {
			if _, err := mem.Flush(p.Dst, p.Size); err != nil {
				return err
			}
		}
	case KindCAS:
		cur, err := mem.Slice(p.Off, 8)
		if err != nil {
			return err
		}
		if binary.LittleEndian.Uint64(cur) == p.Old {
			var nb [8]byte
			binary.LittleEndian.PutUint64(nb[:], p.New)
			if err := mem.Write(p.Off, nb[:]); err != nil {
				return err
			}
		}
	}
	return nil
}
