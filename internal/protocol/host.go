package protocol

import (
	"fmt"

	"hyperloop/internal/rdma"
)

// Host is one group's share of one NIC: the device regions it carves, the
// memory regions it registers, and the QPs and CQs it creates. Every
// datapath sets up its client and members through one, so the layout rule
// and the teardown are written here once; nothing else lays out NIC
// memory.
//
// The mirror is the first region, at device offset 0 on every member, so
// that group offsets are uniform — and therefore a NIC hosts exactly one
// group at a time. It is also the NIC's only durable memory: send rings,
// staging buffers and ack slots are ordinary host memory, which gFLUSH
// never covers and a crash zeroes (§4.2 argues durability for the
// replicated region alone). NewHost is where both rules live.
//
// Errors are sticky, NewHost's included: the first failure is kept, every
// later call does nothing and returns a zero value, and the caller checks
// Err once when its setup is done. Destroy is safe either way.
type Host struct {
	nic        *rdma.NIC
	mirrorSize int
	next       int // device offset the next region may start at, before alignment
	qps        []*rdma.QP
	cqs        []*rdma.CQ
	err        error
}

// NewHost claims nic for one group, carves its mirror of mirrorSize bytes
// at device offset 0 and declares it the device's durable prefix. It
// fails if another group still holds live QPs or CQs on the NIC: that
// group's regions start at offset 0 too, so the mirror has nowhere to go
// until the other group is closed.
func NewHost(nic *rdma.NIC, mirrorSize int) *Host {
	h := &Host{nic: nic, mirrorSize: mirrorSize}
	if !nic.Idle() {
		h.err = fmt.Errorf("protocol: %s: mirror not at offset 0: the NIC still hosts a live group", nic.Host())
	}
	h.Region("mirror", mirrorSize)
	if h.err == nil {
		nic.Memory().SetDurablePrefix(mirrorSize)
	}
	return h
}

// NIC returns the NIC the host is carved from.
func (h *Host) NIC() *rdma.NIC { return h.nic }

// Err returns the first error any call on the host met, or nil.
func (h *Host) Err() error { return h.err }

// Region carves the next size bytes of the device, 64-byte aligned, and
// returns their offset.
func (h *Host) Region(name string, size int) uint64 {
	if h.err != nil {
		return 0
	}
	const align = 64
	off := (h.next + align - 1) &^ (align - 1)
	if free := h.nic.Memory().Size() - off; size < 0 || size > free {
		h.err = fmt.Errorf("protocol: %s: cannot carve region %q (%d bytes, %d free)",
			h.nic.Host(), name, size, max(free, 0))
		return 0
	}
	h.next = off + size
	return uint64(off)
}

// MR registers [off, off+size) with the given remote rights.
func (h *Host) MR(off uint64, size int, rights rdma.Access) *rdma.MemoryRegion {
	if h.err != nil {
		return nil
	}
	mr, err := h.nic.RegisterMR(off, uint64(size), rights)
	h.err = err
	return mr
}

// MirrorMR registers the mirror with full remote rights: a peer WRITEs
// into it, and the member's own loopback FLUSHes and CASes it.
func (h *Host) MirrorMR() *rdma.MemoryRegion {
	return h.MR(0, h.mirrorSize, rdma.AccessRemoteRead|rdma.AccessRemoteWrite|rdma.AccessRemoteAtomic)
}

// CQ creates a completion queue with no drain handler: completions
// advance its totals — and so WAIT thresholds — until a datapath installs
// one to consume them.
func (h *Host) CQ() *rdma.CQ {
	if h.err != nil {
		return nil
	}
	cq := h.nic.CreateCQ()
	h.cqs = append(h.cqs, cq)
	return cq
}

// QP carves a send ring of slots WQEs under the region name ring and
// creates a queue pair on it. A nil send or recv CQ gets a fresh CQ(),
// created in that order.
func (h *Host) QP(ring string, slots int, send, recv *rdma.CQ) *rdma.QP {
	off := h.Region(ring, slots*rdma.WQESize)
	if send == nil {
		send = h.CQ()
	}
	if recv == nil {
		recv = h.CQ()
	}
	if h.err != nil {
		return nil
	}
	qp, err := h.nic.CreateQP(rdma.QPConfig{SendRingOff: off, SendSlots: slots, SendCQ: send, RecvCQ: recv})
	if err != nil {
		h.err = err
		return nil
	}
	h.qps = append(h.qps, qp)
	return qp
}

// Destroy destroys every QP and CQ the host created, which returns the NIC
// to service for the next group. Safe to call twice.
func (h *Host) Destroy() {
	for _, qp := range h.qps {
		qp.Destroy()
	}
	for _, cq := range h.cqs {
		cq.Destroy()
	}
}
