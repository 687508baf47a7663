package hyperloop

import "hyperloop/internal/rdma"

func (g *FanoutGroup) resultSlotAddr(seq uint64) uint64 {
	return g.primary.resultOff + (seq%uint64(g.params.Depth))*uint64(g.ack.slotLen())
}

func (g *FanoutGroup) stagingAddr(j int, seq uint64) uint64 {
	b := max(g.numBackups(), 1)
	slot := (seq % uint64(g.params.Depth)) * uint64(b)
	return g.primary.stagingOff + (slot+uint64(j))*uint64(fanBackupMetaLen)
}

// armPrimary pre-posts the primary's chains and receives for op seq.
func (g *FanoutGroup) armPrimary(seq uint64) error {
	p := g.primary
	b := g.numBackups()

	// Metadata receive: descriptor blocks scatter into the pre-posted WQE
	// slots; each backup's peeled metadata into its staging slot; the
	// header into the result block.
	loopRing, loopSlots := p.qpLoop.RingOff(), p.qpLoop.RingSlots()
	sges := []rdma.SGE{
		{Addr: rdma.DescAddr(loopRing, loopSlots, chainSlotA(seq)), Len: rdma.DescLen},
		{Addr: rdma.DescAddr(loopRing, loopSlots, chainSlotB(seq)), Len: rdma.DescLen},
	}
	for j := 0; j < b; j++ {
		ring, slots := p.qpFwd[j].RingOff(), p.qpFwd[j].RingSlots()
		sges = append(sges,
			rdma.SGE{Addr: rdma.DescAddr(ring, slots, chainSlotA(seq)), Len: rdma.DescLen},
			rdma.SGE{Addr: rdma.DescAddr(ring, slots, chainSlotB(seq)), Len: rdma.DescLen},
		)
	}
	for j := 0; j < b; j++ {
		sges = append(sges, rdma.SGE{Addr: g.stagingAddr(j, seq), Len: uint64(fanBackupMetaLen)})
	}
	hdrAddr := g.resultSlotAddr(seq) + uint64((1+b)*resultEntry)
	sges = append(sges, rdma.SGE{Addr: hdrAddr, Len: headerSize})

	// Loopback chain.
	if _, err := p.qpLoop.PostSend(rdma.WQE{
		Opcode: rdma.OpWait, Imm: 1, Aux1: p.qpClient.RecvCQ().CQN(), Aux2: 2, WRID: seq,
	}); err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		if _, err := p.qpLoop.PostSendDeferred(rdma.WQE{
			Opcode: rdma.OpNop, Flags: rdma.FlagSignaled, WRID: seq,
		}); err != nil {
			return err
		}
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

	// The metadata receive is posted only after every chain slot exists,
	// so a racing (RNR-delayed) delivery cannot scatter into slots that
	// are about to be overwritten by placeholders.
	p.qpClient.PostRecv(rdma.RecvWQE{WRID: seq, SGEs: sges})

	// Ack receives from each backup: header + that backup's result field.
	for j := 0; j < b; j++ {
		p.qpAckIn[j].PostRecv(rdma.RecvWQE{
			WRID: seq,
			SGEs: []rdma.SGE{
				{Addr: hdrAddr, Len: headerSize},
				{Addr: g.resultSlotAddr(seq) + uint64((j+1)*resultEntry), Len: resultEntry},
			},
		})
	}

	// Group-ACK chain on the client QP: one absolute WAIT per backup (op
	// seq is done at backup j once its ack CQ reaches seq+1), then the
	// WRITE_WITH_IMM carrying the result block. With no backups the ACK
	// gates directly on the primary's local completions.
	if b == 0 {
		if _, err := p.qpClient.PostSend(rdma.WQE{
			Opcode: rdma.OpWait, Flags: rdma.FlagWaitAbs,
			Compare: 2 * (seq + 1), Aux1: p.qpLoop.SendCQ().CQN(), WRID: seq,
		}); err != nil {
			return err
		}
	}
	for j := 0; j < b; j++ {
		if _, err := p.qpClient.PostSend(rdma.WQE{
			Opcode: rdma.OpWait, Flags: rdma.FlagWaitAbs,
			Compare: seq + 1, Aux1: p.qpAckIn[j].RecvCQ().CQN(), WRID: seq,
		}); err != nil {
			return err
		}
	}
	_, err := p.qpClient.PostSend(rdma.WQE{
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

	metaAddr := g.metaOff + (seq%uint64(g.params.Depth))*uint64(g.metaLen())
	if err := g.client.Memory().Write(int(metaAddr), msg); err != nil {
		return err
	}
	return postToHead(g.qpHead, seq, kind, p, g.primary.mirror.RKey, metaAddr, g.metaLen())
}
