package naive

import (
	"hyperloop/internal/protocol"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
)

// Transmit is the baseline's half of an issue (protocol.Strategy): it
// stages the op header and sends it down the chain — optional data WRITE,
// then the metadata SEND that wakes the first replica's handler process.
func (g *Group) Transmit(seq uint64, kind opKind, p protocol.Op) error {
	h := opHeader{
		seq: seq, kind: kind, durable: p.Durable,
		off: uint64(p.Off), size: uint64(p.Size), src: uint64(p.Src), dst: uint64(p.Dst),
		old: p.Old, swp: p.New,
	}
	for i, e := range p.Exec {
		if e {
			h.execMap |= 1 << uint(i)
		}
	}
	msg := g.metaBuf
	clear(msg)
	h.encode(msg)
	metaAddr := g.metaOff + (seq%uint64(g.Params().Depth))*uint64(g.msgLen())
	if err := g.ClientNIC().Memory().Write(int(metaAddr), msg); err != nil {
		return err
	}
	if kind == kindWrite {
		if _, err := g.qpHead.PostSend(rdma.WQE{
			Opcode: rdma.OpWrite, WRID: seq,
			Local: h.off, Len: h.size, Remote: h.off, Aux1: g.replicas[0].mirror.RKey,
		}); err != nil {
			return err
		}
	}
	_, err := g.qpHead.PostSend(rdma.WQE{
		Opcode: rdma.OpSend, WRID: seq,
		Local: metaAddr, Len: uint64(g.msgLen()),
	})
	return err
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
