package hyperloop

import (
	"encoding/binary"
	"fmt"

	"hyperloop/internal/protocol"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
)

// opParams carries one operation's arguments through metadata building —
// the shared encoding from internal/protocol.
type opParams = protocol.Op

// stagingAddr returns replica r's staging slot address for seq.
func (g *Group) stagingAddr(r *replica, seq uint64) uint64 {
	return r.stagingOff + (seq%uint64(g.cfg.Depth))*uint64(r.stagingSlot)
}

func (g *Group) ackAddr(seq uint64) uint64 {
	return g.ackOff + (seq%uint64(g.cfg.Depth))*uint64(g.lay.ackSlotSize())
}

// buildBlock serializes hop i's descriptor block (L1, L2, F1, F2) for the
// given operation into buf. The client pre-computes every descriptor —
// including next-hop rkeys and staging addresses learned at setup — exactly
// as HyperLoop's client library does (§4.1, "the metadata ... is
// pre-calculated by the client").
func (g *Group) buildBlock(buf []byte, i int, seq uint64, kind opKind, p opParams) error {
	r := g.replicas[i-1]

	l1 := rdma.WQE{Opcode: rdma.OpNop, Flags: rdma.FlagSignaled, WRID: seq}
	switch {
	case kind == kindCAS && p.Exec[i-1]:
		resultAddr := g.stagingAddr(r, seq) + uint64(g.lay.resultOffsetInStaging(i, i))
		l1 = rdma.WQE{
			Opcode: rdma.OpCAS, Flags: rdma.FlagSignaled, WRID: seq,
			Local: resultAddr, Remote: uint64(p.Off),
			Compare: p.Old, Swap: p.New, Aux1: r.mirror.RKey,
		}
	case kind == kindMemcpy:
		l1 = rdma.WQE{
			Opcode: rdma.OpMemcpy, Flags: rdma.FlagSignaled, WRID: seq,
			Local: uint64(p.Src), Len: uint64(p.Size), Remote: uint64(p.Dst),
		}
	}

	l2 := rdma.WQE{Opcode: rdma.OpNop, Flags: rdma.FlagSignaled, WRID: seq}
	switch {
	case kind == kindWrite && p.Durable:
		l2 = rdma.WQE{
			Opcode: rdma.OpFlush, Flags: rdma.FlagSignaled, WRID: seq,
			Remote: uint64(p.Off), Len: uint64(p.Size), Aux1: r.mirror.RKey,
		}
	case kind == kindMemcpy && p.Durable:
		l2 = rdma.WQE{
			Opcode: rdma.OpFlush, Flags: rdma.FlagSignaled, WRID: seq,
			Remote: uint64(p.Dst), Len: uint64(p.Size), Aux1: r.mirror.RKey,
		}
	case kind == kindFlush:
		l2 = rdma.WQE{
			Opcode: rdma.OpFlush, Flags: rdma.FlagSignaled, WRID: seq,
			Remote: uint64(p.Off), Len: uint64(p.Size), Aux1: r.mirror.RKey,
		}
	}

	f1 := rdma.WQE{Opcode: rdma.OpNop, WRID: seq}
	if kind == kindWrite && !r.isTail {
		next := g.replicas[i] // hop i+1 (0-based index i)
		f1 = rdma.WQE{
			Opcode: rdma.OpWrite, WRID: seq,
			Local: uint64(p.Off), Len: uint64(p.Size),
			Remote: uint64(p.Off), Aux1: next.mirror.RKey,
		}
	}

	var f2 rdma.WQE
	if r.isTail {
		f2 = rdma.WQE{
			Opcode: rdma.OpWriteImm, Flags: rdma.FlagSignaled, WRID: seq,
			Local: g.stagingAddr(r, seq), Len: uint64(r.metaRest),
			Remote: g.ackAddr(seq), Aux1: g.ackMR.RKey, Imm: uint32(seq),
		}
	} else {
		f2 = rdma.WQE{
			Opcode: rdma.OpSend, Flags: rdma.FlagSignaled, WRID: seq,
			Local: g.stagingAddr(r, seq), Len: uint64(r.metaRest),
		}
	}

	for j, w := range []rdma.WQE{l1, l2, f1, f2} {
		if err := w.EncodeDesc(buf[j*rdma.DescLen:]); err != nil {
			return err
		}
	}
	return nil
}

// issue builds and transmits one group operation, returning its pending
// handle. The caller awaits op.Sig.
func (g *Group) issue(kind opKind, p opParams) (*protocol.Pending, error) {
	if g.trk.Closed() {
		return nil, ErrClosed
	}
	if !g.trk.HasWindow() {
		return nil, ErrTooManyInFlight
	}
	if p.Off < 0 || p.Off+p.Size > g.cfg.MirrorSize {
		return nil, fmt.Errorf("%w: range [%d,+%d) outside mirror", ErrBadArgument, p.Off, p.Size)
	}
	if kind == kindMemcpy && (p.Src < 0 || p.Src+p.Size > g.cfg.MirrorSize ||
		p.Dst < 0 || p.Dst+p.Size > g.cfg.MirrorSize) {
		return nil, fmt.Errorf("%w: memcpy range outside mirror", ErrBadArgument)
	}
	if kind == kindCAS && len(p.Exec) != g.lay.groupSize {
		return nil, fmt.Errorf("%w: execute map must have %d entries", ErrBadArgument, g.lay.groupSize)
	}
	seq := g.trk.NextSeq()

	// Build the full metadata message for hop 1.
	msg := g.metaBuf
	clear(msg)
	for i := 1; i <= g.lay.groupSize; i++ {
		if err := g.buildBlock(msg[(i-1)*descBlockSize:], i, seq, kind, p); err != nil {
			return nil, err
		}
	}
	hdr := msg[g.lay.groupSize*descBlockSize+g.lay.resultsLen():]
	binary.LittleEndian.PutUint64(hdr, seq)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(kind))

	metaAddr := g.metaOff + (seq%uint64(g.cfg.Depth))*uint64(g.lay.metaLen(1))
	if err := g.client.Memory().Write(int(metaAddr), msg); err != nil {
		return nil, err
	}

	op := g.trk.Track(seq, kind)

	// The client mirrors the operation on its own copy (§4.1: the client
	// performs the memory operation in its own region and the replica NICs
	// perform the same operation in theirs).
	if err := protocol.ApplyLocal(g.client.Memory(), kind, p); err != nil {
		return nil, err
	}

	// Transmit: data WRITE first (gWRITE only), then the metadata SEND.
	// Reliable-connection FIFO guarantees the data lands before the
	// receive completion that triggers the chain.
	if kind == kindWrite {
		if _, err := g.qpHead.PostSend(rdma.WQE{
			Opcode: rdma.OpWrite, WRID: seq,
			Local: uint64(p.Off), Len: uint64(p.Size),
			Remote: uint64(p.Off), Aux1: g.replicas[0].mirror.RKey,
		}); err != nil {
			return nil, err
		}
	}
	if _, err := g.qpHead.PostSend(rdma.WQE{
		Opcode: rdma.OpSend, WRID: seq,
		Local: metaAddr, Len: uint64(g.lay.metaLen(1)),
	}); err != nil {
		return nil, err
	}
	g.trk.MarkIssued()
	return op, nil
}

// WriteLocal stores data into the client's mirror; the usual pattern is
// WriteLocal followed by Write to replicate the range.
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

// WriteAsync replicates [off, off+size) of the mirror to all replicas
// (gWRITE), optionally flushing each replica's NVM (interleaved gFLUSH).
// The returned signal fires when the tail's group ACK arrives.
func (g *Group) WriteAsync(off, size int, durable bool) (*sim.Signal, error) {
	op, err := g.issue(kindWrite, opParams{Off: off, Size: size, Durable: durable})
	if err != nil {
		return nil, err
	}
	return op.Sig, nil
}

// retry runs an idempotent async issue function through the shared
// tracker: await, re-issue on ErrTimeout up to MaxRetries extra attempts
// with linear backoff. Only blocking forms of idempotent primitives use it.
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

// MemcpyAsync copies [src, src+size) to [dst, dst+size) locally on every
// group member (gMEMCPY) — the NIC-offloaded log-execution step.
func (g *Group) MemcpyAsync(src, dst, size int, durable bool) (*sim.Signal, error) {
	op, err := g.issue(kindMemcpy, opParams{Src: src, Dst: dst, Size: size, Durable: durable})
	if err != nil {
		return nil, err
	}
	return op.Sig, nil
}

// Memcpy is the blocking form of MemcpyAsync, with the same retry policy
// as Write (gMEMCPY is idempotent).
func (g *Group) Memcpy(f *sim.Fiber, src, dst, size int, durable bool) error {
	return g.retry(f, func() (*sim.Signal, error) {
		return g.MemcpyAsync(src, dst, size, durable)
	})
}

// CAS performs a group compare-and-swap (gCAS) of the 8-byte word at off
// on every replica whose execute-map entry is true, returning the original
// value observed at each replica. Entries for skipped replicas are the NOP
// placeholder zero.
func (g *Group) CAS(f *sim.Fiber, off int, old, new uint64, exec []bool) ([]uint64, error) {
	op, err := g.issue(kindCAS, opParams{Off: off, Size: 8, Old: old, New: new, Exec: exec})
	if err != nil {
		return nil, err
	}
	if err := f.Await(op.Sig); err != nil {
		return nil, err
	}
	return op.Results, nil
}

// FlushAsync makes [off, off+size) durable on every member (gFLUSH).
func (g *Group) FlushAsync(off, size int) (*sim.Signal, error) {
	op, err := g.issue(kindFlush, opParams{Off: off, Size: size})
	if err != nil {
		return nil, err
	}
	return op.Sig, nil
}

// Flush is the blocking form of FlushAsync, with the same retry policy as
// Write (gFLUSH is idempotent).
func (g *Group) Flush(f *sim.Fiber, off, size int) error {
	return g.retry(f, func() (*sim.Signal, error) {
		return g.FlushAsync(off, size)
	})
}

// ReadHead performs a one-sided RDMA READ of the head replica's mirror
// range [remoteOff, remoteOff+size) into the client's mirror at localOff —
// the lock-free read path (§5, "lock-free one-sided reads from exactly one
// replica").
func (g *Group) ReadHead(f *sim.Fiber, remoteOff, localOff, size int) error {
	if localOff < 0 || localOff+size > g.cfg.MirrorSize {
		return fmt.Errorf("%w: read buffer outside mirror", ErrBadArgument)
	}
	if g.trk.Closed() {
		return ErrClosed
	}
	g.nextWRID++
	wrid := g.nextWRID | 1<<63 // disjoint from op sequence numbers
	sig := sim.NewSignal()
	g.reads[wrid] = sig
	if _, err := g.qpHead.PostSend(rdma.WQE{
		Opcode: rdma.OpRead, Flags: rdma.FlagSignaled, WRID: wrid,
		Local: uint64(localOff), Len: uint64(size),
		Remote: uint64(remoteOff), Aux1: g.replicas[0].mirror.RKey,
	}); err != nil {
		delete(g.reads, wrid)
		return err
	}
	return f.Await(sig)
}
