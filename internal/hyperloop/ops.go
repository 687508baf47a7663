package hyperloop

import (
	"encoding/binary"

	"hyperloop/internal/nvm"
	"hyperloop/internal/protocol"
	"hyperloop/internal/rdma"
)

// opParams carries one operation's arguments through metadata building —
// the shared encoding from internal/protocol.
type opParams = protocol.Op

// stagingAddr returns replica r's staging slot address for seq.
func (g *Group) stagingAddr(r *replica, seq uint64) uint64 {
	return r.stagingOff + (seq%uint64(g.Params().Depth))*uint64(r.stagingSlot)
}

// encodeLocalBlock builds the patched L1/L2 descriptors one member runs on
// its loopback QP: L1 is the member's gCAS (when its execute-map entry
// memberIdx is set; the original value lands at resultAddr) or gMEMCPY,
// L2 the FLUSH a durable write or memcpy or a gFLUSH needs. Either is a
// signaled NOP otherwise, so the WAIT downstream always counts two.
func encodeLocalBlock(buf []byte, seq uint64, kind opKind, p opParams,
	mirrorRKey uint32, resultAddr uint64, memberIdx int) error {
	l1 := rdma.WQE{Opcode: rdma.OpNop, Flags: rdma.FlagSignaled, WRID: seq}
	switch {
	case kind == kindCAS && p.Exec[memberIdx]:
		l1 = rdma.WQE{
			Opcode: rdma.OpCAS, Flags: rdma.FlagSignaled, WRID: seq,
			Local: resultAddr, Remote: uint64(p.Off),
			Compare: p.Old, Swap: p.New, Aux1: mirrorRKey,
		}
	case kind == kindMemcpy:
		l1 = rdma.WQE{
			Opcode: rdma.OpMemcpy, Flags: rdma.FlagSignaled, WRID: seq,
			Local: uint64(p.Src), Len: uint64(p.Size), Remote: uint64(p.Dst),
		}
	}
	l2 := rdma.WQE{Opcode: rdma.OpNop, Flags: rdma.FlagSignaled, WRID: seq}
	if kind == kindFlush || p.Durable && (kind == kindWrite || kind == kindMemcpy) {
		off := p.Off
		if kind == kindMemcpy {
			off = p.Dst
		}
		l2 = rdma.WQE{
			Opcode: rdma.OpFlush, Flags: rdma.FlagSignaled, WRID: seq,
			Remote: uint64(off), Len: uint64(p.Size), Aux1: mirrorRKey,
		}
	}
	if err := l1.EncodeDesc(buf); err != nil {
		return err
	}
	return l2.EncodeDesc(buf[rdma.DescLen:])
}

// buildBlock serializes hop i's descriptor block (L1, L2, F1, F2) for the
// given operation into buf. The client pre-computes every descriptor —
// including next-hop rkeys and staging addresses learned at setup — exactly
// as HyperLoop's client library does (§4.1, "the metadata ... is
// pre-calculated by the client").
func (g *Group) buildBlock(buf []byte, i int, seq uint64, kind opKind, p opParams) error {
	r := g.replicas[i-1]
	resultAddr := g.stagingAddr(r, seq) + uint64(g.lay.resultOffsetInStaging(i, i))
	if err := encodeLocalBlock(buf, seq, kind, p, r.mirror.RKey, resultAddr, i-1); err != nil {
		return err
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
	// F2 forwards the peeled metadata; the tail's carries the result map
	// home as the group ACK.
	f2 := rdma.WQE{
		Opcode: rdma.OpSend, Flags: rdma.FlagSignaled, WRID: seq,
		Local: g.stagingAddr(r, seq), Len: uint64(r.metaRest),
	}
	if r.isTail {
		f2.Opcode, f2.Remote, f2.Aux1, f2.Imm = rdma.OpWriteImm, g.ack.addr(seq), g.ack.mr.RKey, uint32(seq)
	}
	if err := f1.EncodeDesc(buf[2*rdma.DescLen:]); err != nil {
		return err
	}
	return f2.EncodeDesc(buf[3*rdma.DescLen:])
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
	putHeader(msg[g.lay.groupSize*descBlockSize+g.lay.resultsLen():], seq, kind)

	metaAddr := g.metaOff + (seq%uint64(g.Params().Depth))*uint64(g.lay.metaLen(1))
	if err := g.ClientNIC().Memory().Write(int(metaAddr), msg); err != nil {
		return err
	}
	return postToHead(g.qpHead, seq, kind, p, g.replicas[0].mirror.RKey, metaAddr, g.lay.metaLen(1))
}

// postToHead transmits one staged operation to the first member of a
// chain or fan-out group, or to one broadcast member: the data WRITE
// (gWRITE only), then the metadata SEND. Reliable-connection FIFO
// guarantees the data lands before the receive completion that triggers
// the member's chain.
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

// groupAck is the client end of a chain's or fan-out's group ACK: Depth
// slots of [one result per member][header], each filled by the
// WRITE_WITH_IMM whose imm names the operation's sequence.
type groupAck struct {
	grp   *protocol.Group
	qp    *rdma.QP // receives the WRITE_WITH_IMM
	mem   *nvm.Device
	mr    *rdma.MemoryRegion
	off   uint64
	depth int
	buf   []byte   // one slot, reused across ACKs
	res   []uint64 // the result map; protocol.Group copies it
}

// carve places the ACK slots on the client's host and registers them for
// the remote WRITE.
func (a *groupAck) carve(h *protocol.Host, grp *protocol.Group, depth int) {
	a.grp, a.mem, a.depth = grp, h.NIC().Memory(), depth
	a.res = make([]uint64, grp.GroupSize())
	a.buf = make([]byte, a.slotLen())
	a.off = h.Region("ack", depth*a.slotLen())
	a.mr = h.MR(a.off, depth*a.slotLen(), rdma.AccessRemoteWrite)
}

func (a *groupAck) slotLen() int { return len(a.res)*resultEntry + headerSize }

func (a *groupAck) addr(seq uint64) uint64 {
	return a.off + (seq%uint64(a.depth))*uint64(a.slotLen())
}

// onAcks decodes a drained batch of group ACKs and completes their ops.
func (a *groupAck) onAcks(batch []rdma.CQE) {
	for _, e := range batch {
		a.qp.PostRecv(rdma.RecvWQE{}) // keep the ACK window replenished
		if err := a.mem.Read(int(a.addr(uint64(e.Imm))), a.buf); err != nil {
			continue
		}
		for j := range a.res {
			a.res[j] = binary.LittleEndian.Uint64(a.buf[j*resultEntry:])
		}
		a.grp.Complete(binary.LittleEndian.Uint64(a.buf[len(a.res)*resultEntry:]), a.res)
	}
}
