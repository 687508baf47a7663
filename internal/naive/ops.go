package naive

import (
	"fmt"

	"hyperloop/internal/protocol"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
)

// issue transmits one operation down the chain: optional data WRITE, then
// the metadata SEND that wakes the first replica's handler process.
func (g *Group) issue(kind opKind, h opHeader) (*protocol.Pending, error) {
	if g.trk.Closed() {
		return nil, ErrClosed
	}
	if !g.trk.HasWindow() {
		return nil, ErrTooManyInFlight
	}
	if int(h.off) < 0 || int(h.off+h.size) > g.cfg.MirrorSize {
		return nil, fmt.Errorf("%w: range outside mirror", ErrBadArgument)
	}
	if kind == kindMemcpy && (int(h.src+h.size) > g.cfg.MirrorSize || int(h.dst+h.size) > g.cfg.MirrorSize) {
		return nil, fmt.Errorf("%w: memcpy range outside mirror", ErrBadArgument)
	}
	seq := g.trk.NextSeq()
	h.seq = seq
	h.kind = kind

	msg := g.metaBuf
	clear(msg)
	h.encode(msg)
	metaAddr := g.metaOff + (seq%uint64(g.cfg.Depth))*uint64(g.msgLen())
	if err := g.client.Memory().Write(int(metaAddr), msg); err != nil {
		return nil, err
	}

	op := g.trk.Track(seq, kind)

	// Mirror the operation on the client's own copy (same semantics as
	// package hyperloop, so the two backends are interchangeable).
	if err := protocol.ApplyLocal(g.client.Memory(), kind, protocol.Op{
		Off: int(h.off), Size: int(h.size), Src: int(h.src), Dst: int(h.dst),
		Old: h.old, New: h.swp, Durable: h.durable,
	}); err != nil {
		return nil, err
	}

	if kind == kindWrite {
		if _, err := g.qpHead.PostSend(rdma.WQE{
			Opcode: rdma.OpWrite, WRID: seq,
			Local: h.off, Len: h.size, Remote: h.off, Aux1: g.replicas[0].mirror.RKey,
		}); err != nil {
			return nil, err
		}
	}
	if _, err := g.qpHead.PostSend(rdma.WQE{
		Opcode: rdma.OpSend, WRID: seq,
		Local: metaAddr, Len: uint64(g.msgLen()),
	}); err != nil {
		return nil, err
	}
	g.trk.MarkIssued()
	return op, nil
}

// GroupSize returns the number of replicas.
func (g *Group) GroupSize() int { return len(g.replicas) }

// ReplicaNIC returns the i-th (0-based) replica's NIC.
func (g *Group) ReplicaNIC(i int) *rdma.NIC { return g.replicas[i].nic }

// ClientNIC returns the client's NIC.
func (g *Group) ClientNIC() *rdma.NIC { return g.client }

// Stats reports operations issued and completed.
func (g *Group) Stats() (issued, completed int64) { return g.trk.Stats() }

// Retried reports how many timed-out operations were re-issued by the
// blocking paths.
func (g *Group) Retried() int64 { return g.trk.Retried() }

// InFlight returns operations awaiting their ACK.
func (g *Group) InFlight() int { return g.trk.InFlight() }

// WriteLocal stores data into the client's mirror.
func (g *Group) WriteLocal(off int, data []byte) error {
	if off < 0 || off+len(data) > g.cfg.MirrorSize {
		return fmt.Errorf("%w: local write outside mirror", ErrBadArgument)
	}
	return g.client.Memory().Write(off, data)
}

// ReadLocal returns a copy of the client's mirror range.
func (g *Group) ReadLocal(off, n int) ([]byte, error) {
	if off < 0 || off+n > g.cfg.MirrorSize {
		return nil, fmt.Errorf("%w: local read outside mirror", ErrBadArgument)
	}
	buf := make([]byte, n)
	err := g.client.Memory().Read(off, buf)
	return buf, err
}

// WriteAsync replicates [off, off+size) to all replicas.
func (g *Group) WriteAsync(off, size int, durable bool) (*sim.Signal, error) {
	op, err := g.issue(kindWrite, opHeader{off: uint64(off), size: uint64(size), durable: durable})
	if err != nil {
		return nil, err
	}
	return op.Sig, nil
}

// retry runs an idempotent async issue function, awaiting its signal and
// re-issuing on ErrTimeout up to MaxRetries extra attempts with linear
// backoff. Only the blocking forms of idempotent primitives use it.
func (g *Group) retry(f *sim.Fiber, issue func() (*sim.Signal, error)) error {
	return g.trk.Retry(f, issue)
}

// Write is the blocking form of WriteAsync. With MaxRetries > 0 a timed-out
// write is re-issued (fresh sequence number) after linear backoff.
func (g *Group) Write(f *sim.Fiber, off, size int, durable bool) error {
	return g.retry(f, func() (*sim.Signal, error) {
		return g.WriteAsync(off, size, durable)
	})
}

// MemcpyAsync copies src→dst locally on every member.
func (g *Group) MemcpyAsync(src, dst, size int, durable bool) (*sim.Signal, error) {
	op, err := g.issue(kindMemcpy, opHeader{
		src: uint64(src), dst: uint64(dst), size: uint64(size), durable: durable,
	})
	if err != nil {
		return nil, err
	}
	return op.Sig, nil
}

// Memcpy is the blocking form of MemcpyAsync, with the same retry policy
// as Write.
func (g *Group) Memcpy(f *sim.Fiber, src, dst, size int, durable bool) error {
	return g.retry(f, func() (*sim.Signal, error) {
		return g.MemcpyAsync(src, dst, size, durable)
	})
}

// CAS performs a group compare-and-swap with an execute map.
func (g *Group) CAS(f *sim.Fiber, off int, old, new uint64, exec []bool) ([]uint64, error) {
	if len(exec) != len(g.replicas) {
		return nil, fmt.Errorf("%w: execute map must have %d entries", ErrBadArgument, len(g.replicas))
	}
	var mask uint64
	for i, e := range exec {
		if e {
			mask |= 1 << uint(i)
		}
	}
	op, err := g.issue(kindCAS, opHeader{off: uint64(off), size: 8, old: old, swp: new, execMap: mask})
	if err != nil {
		return nil, err
	}
	if err := f.Await(op.Sig); err != nil {
		return nil, err
	}
	return op.Results, nil
}

// FlushAsync makes [off, off+size) durable on every member.
func (g *Group) FlushAsync(off, size int) (*sim.Signal, error) {
	op, err := g.issue(kindFlush, opHeader{off: uint64(off), size: uint64(size)})
	if err != nil {
		return nil, err
	}
	return op.Sig, nil
}

// Flush is the blocking form of FlushAsync, with the same retry policy as
// Write.
func (g *Group) Flush(f *sim.Fiber, off, size int) error {
	return g.retry(f, func() (*sim.Signal, error) {
		return g.FlushAsync(off, size)
	})
}

// ReplicaHandlerCPU sums the CPU time consumed by the replica handler
// processes — the cost HyperLoop eliminates from the datapath.
func (g *Group) ReplicaHandlerCPU() sim.Duration {
	var d sim.Duration
	for _, r := range g.replicas {
		d += r.proc.TotalCPU()
	}
	return d
}
