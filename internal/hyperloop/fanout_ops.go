package hyperloop

import "hyperloop/internal/rdma"

func (g *FanoutGroup) resultSlotAddr(seq uint64) uint64 {
	return g.primary.resultOff + (seq%uint64(g.Params().Depth))*uint64(g.ack.slotLen())
}

func (g *FanoutGroup) stagingAddr(j int, seq uint64) uint64 {
	b := max(g.numBackups(), 1)
	slot := (seq % uint64(g.Params().Depth)) * uint64(b)
	return g.primary.stagingOff + (slot+uint64(j))*uint64(fanBackupMetaLen)
}

// hdrAddr is where op seq's header lands in the primary's result block,
// behind one result per member: the client's ACK slot layout.
func (g *FanoutGroup) hdrAddr(seq uint64) uint64 {
	return g.resultSlotAddr(seq) + uint64((1+g.numBackups())*resultEntry)
}

// armPrimary pre-posts the primary's chains and receives for op seq.
func (g *FanoutGroup) armPrimary(seq uint64) error {
	p := g.primary
	b := g.numBackups()
	if err := p.armLoop(seq); err != nil {
		return err
	}

	// Per-backup forwarding chains, gated on the loopback completions via
	// an absolute threshold so all of them fire off the same pair.
	for j := 0; j < b; j++ {
		if _, err := p.qpFwd[j].PostSend(rdma.WQE{
			Opcode: rdma.OpWait, Flags: rdma.FlagWaitAbs,
			Compare: 2 * (seq + 1), Aux1: p.qpLoop.SendCQ().CQN(), Aux2: 2, WRID: seq,
		}); err != nil {
			return err
		}
		for i := 0; i < 2; i++ {
			if _, err := p.qpFwd[j].PostSendDeferred(rdma.WQE{Opcode: rdma.OpNop, WRID: seq}); err != nil {
				return err
			}
		}
	}

	// The metadata receive, then each backup's ack receive.
	p.postRecv(seq)
	slot := seq % uint64(g.Params().Depth)
	for j, qp := range p.qpAckIn {
		qp.PostRecv(rdma.RecvWQE{WRID: seq, SGEs: p.ackRecv[j][slot]})
	}

	// Group-ACK chain on the client QP: one absolute WAIT per backup (op
	// seq is done at backup j once its ack CQ reaches seq+1), then the
	// WRITE_WITH_IMM carrying the result block. With no backups the ACK
	// gates directly on the primary's local completions.
	if b == 0 {
		if _, err := p.qpPrev.PostSend(rdma.WQE{
			Opcode: rdma.OpWait, Flags: rdma.FlagWaitAbs,
			Compare: 2 * (seq + 1), Aux1: p.qpLoop.SendCQ().CQN(), WRID: seq,
		}); err != nil {
			return err
		}
	}
	for j := 0; j < b; j++ {
		if _, err := p.qpPrev.PostSend(rdma.WQE{
			Opcode: rdma.OpWait, Flags: rdma.FlagWaitAbs,
			Compare: seq + 1, Aux1: p.qpAckIn[j].RecvCQ().CQN(), WRID: seq,
		}); err != nil {
			return err
		}
	}
	_, err := p.qpPrev.PostSend(rdma.WQE{
		Opcode: rdma.OpWriteImm, Flags: rdma.FlagSignaled, WRID: seq, Imm: uint32(seq),
		Local: g.resultSlotAddr(seq), Len: uint64(g.ack.slotLen()),
		Remote: g.ack.addr(seq), Aux1: g.ack.mr.RKey,
	})
	return err
}

// Transmit is the fan-out's half of an issue (protocol.Strategy): it
// stages the primary's metadata message — the primary's local block, the
// per-backup forward chains and the per-backup messages they forward —
// and posts it to the primary.
func (g *FanoutGroup) Transmit(seq uint64, kind opKind, p opParams) error {
	b := g.numBackups()

	msg := g.metaBuf
	clear(msg)
	pos := 0
	// Primary's local block; its CAS result lands at result slot index 0.
	if err := encodeLocalBlock(msg[pos:], seq, kind, p,
		g.primary.mirror.RKey, g.resultSlotAddr(seq), 0); err != nil {
		return err
	}
	pos += 2 * rdma.DescLen
	// Forward chains: data WRITE + peeled metadata SEND per backup.
	for j := 0; j < b; j++ {
		f1 := rdma.WQE{Opcode: rdma.OpNop, WRID: seq}
		if kind == kindWrite {
			f1 = rdma.WQE{
				Opcode: rdma.OpWrite, WRID: seq,
				Local: uint64(p.Off), Len: uint64(p.Size),
				Remote: uint64(p.Off), Aux1: g.backups[j].mirror.RKey,
			}
		}
		f2 := rdma.WQE{
			Opcode: rdma.OpSend, WRID: seq,
			Local: g.stagingAddr(j, seq), Len: uint64(fanBackupMetaLen),
		}
		if err := f1.EncodeDesc(msg[pos:]); err != nil {
			return err
		}
		if err := f2.EncodeDesc(msg[pos+rdma.DescLen:]); err != nil {
			return err
		}
		pos += 2 * rdma.DescLen
	}
	// Per-backup metadata: local block + header; backup j's CAS result
	// lands in its ack slot's result field.
	for j := 0; j < b; j++ {
		bk := g.backups[j]
		resultAddr := bk.ackAddr(seq) + headerSize
		if err := encodeLocalBlock(msg[pos:], seq, kind, p, bk.mirror.RKey, resultAddr, j+1); err != nil {
			return err
		}
		putHeader(msg[pos+2*rdma.DescLen:], seq, kind)
		pos += fanBackupMetaLen
	}
	putHeader(msg[pos:], seq, kind)

	metaAddr := g.metaOff + (seq%uint64(g.Params().Depth))*uint64(g.metaLen())
	if err := g.ClientNIC().Memory().Write(int(metaAddr), msg); err != nil {
		return err
	}
	return postToHead(g.qpHead, seq, kind, p, g.primary.mirror.RKey, metaAddr, g.metaLen())
}
