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

// Transmit is the chain's half of an issue (protocol.Strategy): it stages
// the full metadata message for hop 1 and posts it to the head replica.
func (g *Group) Transmit(seq uint64, kind opKind, p opParams) error {
	msg := g.metaBuf
	clear(msg)
	for i := 1; i <= g.lay.groupSize; i++ {
		if err := g.buildBlock(msg[(i-1)*descBlockSize:], i, seq, kind, p); err != nil {
			return err
		}
	}
	hdr := msg[g.lay.groupSize*descBlockSize+g.lay.resultsLen():]
	binary.LittleEndian.PutUint64(hdr, seq)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(kind))

	metaAddr := g.metaOff + (seq%uint64(g.cfg.Depth))*uint64(g.lay.metaLen(1))
	if err := g.client.Memory().Write(int(metaAddr), msg); err != nil {
		return err
	}
	return postToHead(g.qpHead, seq, kind, p, g.replicas[0].mirror.RKey, metaAddr, g.lay.metaLen(1))
}

// postToHead transmits one staged operation to the first member of a
// chain or fan-out group: the data WRITE (gWRITE only), then the metadata
// SEND. Reliable-connection FIFO guarantees the data lands before the
// receive completion that triggers the member's chain.
func postToHead(qp *rdma.QP, seq uint64, kind opKind, p opParams, mirrorRKey uint32, metaAddr uint64, metaLen int) error {
	if kind == kindWrite {
		if _, err := qp.PostSend(rdma.WQE{
			Opcode: rdma.OpWrite, WRID: seq,
			Local: uint64(p.Off), Len: uint64(p.Size),
			Remote: uint64(p.Off), Aux1: mirrorRKey,
		}); err != nil {
			return err
		}
	}
	_, err := qp.PostSend(rdma.WQE{
		Opcode: rdma.OpSend, WRID: seq,
		Local: metaAddr, Len: uint64(metaLen),
	})
	return err
}

// ReadHead performs a one-sided RDMA READ of the head replica's mirror
// range [remoteOff, remoteOff+size) into the client's mirror at localOff —
// the lock-free read path (§5, "lock-free one-sided reads from exactly one
// replica").
func (g *Group) ReadHead(f *sim.Fiber, remoteOff, localOff, size int) error {
	if localOff < 0 || size < 0 || localOff > g.cfg.MirrorSize-size {
		return fmt.Errorf("%w: read buffer outside mirror", ErrBadArgument)
	}
	if g.Closed() {
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
