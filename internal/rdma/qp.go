package rdma

import (
	"encoding/binary"
	"fmt"

	"hyperloop/internal/ring"
	"hyperloop/internal/sim"
)

// SGE is a scatter/gather element of a receive work request. HyperLoop's
// remote work-request manipulation relies on receive scatter lists whose
// elements point *into* pre-posted WQE slots, so an arriving metadata SEND
// directly rewrites the descriptors of the operations that will forward it.
type SGE struct {
	Addr uint64
	Len  uint64
}

// RecvWQE is a posted receive buffer (scatter list).
type RecvWQE struct {
	WRID uint64
	SGEs []SGE
}

func (r *RecvWQE) totalLen() uint64 {
	var n uint64
	for _, s := range r.SGEs {
		n += s.Len
	}
	return n
}

// inKind distinguishes inbound message types.
type inKind uint8

const (
	inSend inKind = iota + 1
	inWrite
	inWriteImm
	inFlush
	inCAS
)

// inMsg is what a request leg carries to the responder QP: the issuing
// WQE's operands, its payload and the reply routing. It lives inside the
// pooled wireMsg that carries it and is applied in place (see wireMsg for
// who owns it when). Messages are processed strictly in arrival order; an
// RNR (no posted receive) blocks the queue and retries, preserving
// reliable-connection ordering.
type inMsg struct {
	kind    inKind
	payload []byte
	addr    uint64
	length  uint64
	rkey    uint32
	imm     uint32
	compare uint64
	swap    uint64

	// Reply routing: the requester QP and the op sequence the response
	// must echo. Plain fields instead of a reply closure keep the datapath
	// allocation-free (see finishInbox).
	src    *QP
	srcSeq uint64
}

// pendingOp tracks an issued remote operation awaiting its ACK/response.
// at is the issue instant; the ack-timeout deadline for the QP is always
// the oldest pending op's at plus ackTimeout. seq is the op's position in
// the QP's request stream — replies echo it, so a reply arriving for a
// later op proves every earlier pending op's request (or ack) was lost and
// fails them immediately instead of waiting out the timeout, and a reply
// for an op older than every pending one is a straggler (see handleAck).
// The rest is what completion reads of the issuing WQE: its CQE fields,
// and local for a CAS result.
type pendingOp struct {
	at    sim.Time
	seq   uint64
	wrid  uint64
	local uint64
	imm   uint32
	op    Opcode
	flags uint8
}

// QP is a reliable-connected queue pair. Its send queue is a ring of
// binary WQE slots in host memory; the engine walks the ring in order,
// stalling at WQEs whose ownership has not been granted — the hook that
// lets HyperLoop pre-post operation chains and have WAIT WQEs enable them.
type QP struct {
	nic       *NIC
	qpn       uint32
	ringOff   uint64
	ringSlots int
	sendCQ    *CQ
	recvCQ    *CQ
	peer      *QP

	// The ring's ends are slot indices, so the engine never takes a
	// sequence modulo the ring size. queued is tail - head around the
	// ring; posts numbers the next post (the sequence PostSend returns,
	// whose slot is SlotAddr's).
	head   int // slot the engine executes next
	tail   int // slot the next post fills
	queued int
	posts  uint64

	// FIFO queues are ring buffers: reliable-connection ordering pops
	// strictly from the front, and a slice-shift pop would cost O(depth)
	// per message on deep windows.
	recvQueue ring.Ring[RecvWQE]
	inbox     ring.Ring[*wireMsg]
	pending   ring.Ring[pendingOp]

	pumpScheduled bool
	pumpBusy      bool
	inboxBusy     bool
	rnrWaiting    bool
	dead          bool // destroyed; see Destroy

	lastArrival sim.Time // FIFO clamp for inbound delivery

	// Ack-timeout machinery: ackTimer tracks the transport deadline of the
	// oldest pending op (armed on issue, stopped/re-armed as ACKs arrive,
	// so it never fires — and never executes a kernel event — on a healthy
	// QP). opTx numbers issued ops and is never reset, so an op sequence
	// names one op for the QP's whole life. wireTx/wireRx number delivered
	// wire messages per direction so injected duplicates are suppressed
	// exactly once.
	ackTimer sim.Timer
	ackArmed bool
	ackFn    func()
	opTx     uint64
	wireTx   uint64
	wireRx   uint64

	// Cached callbacks: the engine schedules these thousands of times per
	// simulated op, so they are allocated once per QP, with the pending
	// state (inSrc/inSt/inResp) carried on the struct. Each has at most
	// one outstanding invocation (guarded by pumpBusy / inboxBusy /
	// rnrWaiting), so the shared state cannot be clobbered.
	pumpFn       func()
	doorbellFn   func() // what a parked WAIT hands the CQ to be woken by
	pumpResumeFn func()
	inboxFn      func()
	inboxDoneFn  func()
	rnrRetryFn   func()

	inSrc  *QP // requester awaiting the in-flight inbound message's reply
	inSeq  uint64
	inSt   Status
	inResp []byte

	// wqe is the slot at the head, decoded in place by pump; the engine
	// reads it through *WQE and never copies it.
	wqe WQE

	// The due completion of a local op with a duration (completeAfter).
	localW      WQE
	localSt     Status
	localDoneFn func()
}

// initCallbacks builds the per-QP cached callbacks; called from CreateQP.
func (q *QP) initCallbacks() {
	q.pumpFn = q.pump
	q.doorbellFn = q.Doorbell
	q.pumpResumeFn = func() {
		q.pumpBusy = false
		q.pump()
	}
	q.inboxFn = q.processInbox
	q.inboxDoneFn = q.finishInbox
	q.rnrRetryFn = func() {
		q.rnrWaiting = false
		q.processInbox()
	}
	q.ackFn = q.ackExpire
	q.localDoneFn = func() { q.completeLocal(&q.localW, q.localSt) }
}

// QPN returns the queue pair number.
func (q *QP) QPN() uint32 { return q.qpn }

// NIC returns the owning NIC.
func (q *QP) NIC() *NIC { return q.nic }

// SendCQ returns the send completion queue.
func (q *QP) SendCQ() *CQ { return q.sendCQ }

// RecvCQ returns the receive completion queue.
func (q *QP) RecvCQ() *CQ { return q.recvCQ }

// RingOff returns the host-memory offset of the send WQE ring.
func (q *QP) RingOff() uint64 { return q.ringOff }

// RingSlots returns the send ring capacity in WQE slots.
func (q *QP) RingSlots() int { return q.ringSlots }

// Connect pairs q with peer bidirectionally (reliable connection).
func (q *QP) Connect(peer *QP) {
	q.peer = peer
	peer.peer = q
}

// Peer returns the connected remote QP, or nil.
func (q *QP) Peer() *QP { return q.peer }

// ErrQPDestroyed is returned when posting to a destroyed queue pair.
var ErrQPDestroyed = fmt.Errorf("rdma: QP destroyed")

// Destroy removes the queue pair from service. A destroyed QP never
// touches its send ring again — its pump is inert, queued doorbells and
// parked CQ-waiter wakes become no-ops, posts fail with ErrQPDestroyed —
// and inbound wire messages addressed to it are dropped at delivery, the
// same way a down NIC loses them. Pending remote ops are abandoned
// without completions (the owner is expected to destroy the QP's CQs
// alongside it), the peer link is severed so the peer's subsequent sends
// fail locally instead of transmitting into a void, and the QPN is
// retired. Posted work the engine never reached is flushed: its slots
// lose their ownership flag, so a successor QP whose ring lands on the
// same memory cannot run them as its own. Destroy is what makes
// re-allocating a QP's ring memory safe: an abandoned-but-live QP parked
// on a ring that a successor rewrites would otherwise wake, re-read the
// foreign WQEs, and race the successor for its own completions.
func (q *QP) Destroy() {
	if q.dead {
		return
	}
	q.dead = true
	for i, slot := 0, q.head; i < q.queued; i++ {
		_ = q.setOwned(slot, false)
		slot = q.next(slot)
	}
	q.stopAckTimer()
	q.pending.Reset()
	q.recvQueue.Reset()
	for q.inbox.Len() > 0 {
		q.nic.fabric.release(q.inbox.PopFront())
	}
	if p := q.peer; p != nil {
		q.peer = nil
		if p.peer == q {
			p.peer = nil
		}
	}
	delete(q.nic.qps, q.qpn)
}

// Dead reports whether the QP has been destroyed.
func (q *QP) Dead() bool { return q.dead }

// ErrSendQueueFull is returned when posting would overrun un-executed WQEs.
var ErrSendQueueFull = fmt.Errorf("rdma: send queue full")

// post writes w into the tail slot and moves the tail past it, returning
// the post's sequence number.
func (q *QP) post(w *WQE) (uint64, error) {
	if q.queued >= q.ringSlots {
		return 0, ErrSendQueueFull
	}
	var buf [WQESize]byte
	if err := w.Encode(buf[:]); err != nil {
		return 0, err
	}
	if err := q.nic.mem.Write(q.slotAddr(q.tail), buf[:]); err != nil {
		return 0, err
	}
	seq := q.posts
	q.posts++
	q.tail = q.next(q.tail)
	q.queued++
	return seq, nil
}

// slotAddr returns the host-memory address of ring slot slot.
func (q *QP) slotAddr(slot int) int { return int(q.ringOff) + slot*WQESize }

// next returns the ring slot after slot.
func (q *QP) next(slot int) int {
	if slot++; slot == q.ringSlots {
		return 0
	}
	return slot
}

// PostSend writes w at the ring tail with ownership granted and rings the
// doorbell. This is the conventional verbs path.
func (q *QP) PostSend(w WQE) (uint64, error) {
	if q.dead {
		return 0, ErrQPDestroyed
	}
	w.Flags |= FlagOwned
	seq, err := q.post(&w)
	if err != nil {
		return 0, err
	}
	q.Doorbell()
	return seq, nil
}

// PostSendDeferred writes w at the ring tail *without* granting ownership:
// the NIC will stall at this WQE until a WAIT enables it. This is
// HyperLoop's modified-driver posting path (§4.1).
func (q *QP) PostSendDeferred(w WQE) (uint64, error) {
	if q.dead {
		return 0, ErrQPDestroyed
	}
	w.Flags &^= FlagOwned
	return q.post(&w)
}

func (q *QP) setOwned(slot int, owned bool) error {
	addr := q.slotAddr(slot) + wqeOffFlags
	b, err := q.nic.mem.Slice(addr, 1)
	if err != nil {
		return err
	}
	flags := b[0]
	if owned {
		flags |= FlagOwned
	} else {
		flags &^= FlagOwned
	}
	return q.nic.mem.Write(addr, []byte{flags})
}

// PostRecv posts a receive scatter list. If a sender was blocked on
// receiver-not-ready, delivery resumes on the next simulation step — never
// synchronously inside the caller, which could otherwise observe its own
// half-finished setup (e.g. a receive posted before its WQE chains).
func (q *QP) PostRecv(r RecvWQE) {
	if q.dead {
		return
	}
	q.recvQueue.PushBack(r)
	if q.rnrWaiting {
		q.rnrWaiting = false
		q.nic.fabric.k.AfterFunc(0, q.inboxFn, nil)
	}
}

// Doorbell kicks the send engine.
func (q *QP) Doorbell() {
	if q.dead || q.pumpScheduled || q.pumpBusy {
		return
	}
	q.pumpScheduled = true
	q.nic.fabric.k.AfterFunc(0, q.pumpFn, nil)
}

// pump executes send WQEs in ring order until it stalls (un-owned WQE,
// unsatisfied WAIT) or goes busy on an occupancy delay.
func (q *QP) pump() {
	q.pumpScheduled = false
	if q.dead || q.pumpBusy || q.nic.down {
		return
	}
	buf, err := q.nic.mem.Slice(q.slotAddr(q.head), WQESize)
	if err != nil || buf[wqeOffFlags]&FlagOwned == 0 || buf[wqeOffOpcode] == 0 {
		return // stall until doorbell / enable
	}
	w := &q.wqe
	w.decode(buf)
	if w.Opcode == OpWait {
		q.execWait(w)
		return
	}
	q.execute(w)
}

// execWait implements the CORE-Direct WAIT verb: block this send queue
// until the target CQ has Imm unconsumed completions, then enable the
// following Aux2 WQEs and advance.
func (q *QP) execWait(w *WQE) {
	cq := q.nic.CQ(w.Aux1)
	if cq == nil {
		q.finishSlot(w, StatusLocalError, 0)
		return
	}
	// Unsatisfied WAITs park with a wake threshold: the CQ wakes this
	// send queue once per satisfied WAIT, not once per CQE. A threshold
	// can go stale when a competing WAIT consumes first; the re-executed
	// WAIT below simply re-parks with a corrected threshold, so staleness
	// costs one extra no-op pump, never correctness.
	if w.Flags&FlagWaitAbs != 0 {
		if cq.total < int64(w.Compare) {
			cq.subscribe(q.doorbellFn, int64(w.Compare))
			return
		}
	} else {
		// Consuming WAITs burn successful completions only: an error CQE
		// (timeout/flush) means the gated work did NOT happen, and on real
		// hardware an errored WQE moves the QP to the error state rather
		// than silently satisfying a downstream wait. Counting errors here
		// let a crashed member's ack chain fire for a flush that never
		// executed — an acked durability contract with zero durable copies.
		need := int64(w.Imm)
		if need <= 0 {
			need = 1
		}
		if cq.okTotal-cq.waitConsumed < need {
			cq.subscribeOK(q.doorbellFn, cq.waitConsumed+need)
			return
		}
		cq.waitConsumed += need
	}
	slot := q.head
	for j := uint32(1); j <= w.Aux2; j++ {
		slot = q.next(slot)
		_ = q.setOwned(slot, true)
	}
	q.nic.wqesExecuted++
	q.advance(q.nic.fabric.cfg.WQEProc)
}

// execute issues a non-WAIT WQE: it pays the engine occupancy (processing
// plus wire serialization for remote ops), advances the ring, and arranges
// completion when the ACK/response returns.
func (q *QP) execute(w *WQE) {
	n := q.nic
	cfg := n.fabric.cfg
	n.wqesExecuted++

	switch w.Opcode {
	case OpNop:
		q.completeLocal(w, StatusSuccess)
		q.advance(cfg.WQEProc)

	case OpMemcpy:
		if w.Len > uint64(n.mem.Size()) {
			// A malformed length fails before it is charged as copy time.
			q.completeLocal(w, StatusLocalError)
			q.advance(cfg.WQEProc)
			return
		}
		st := StatusSuccess
		if err := n.mem.Copy(int(w.Remote), int(w.Local), int(w.Len)); err != nil {
			st = StatusLocalError
		}
		occ := cfg.WQEProc + sim.Duration(float64(w.Len)*8/cfg.MemCopyBps*1e9)
		q.completeAfter(w, st, occ)
		q.advance(occ)

	case OpSend, OpWrite, OpWriteImm:
		if q.peer == nil || w.Len > uint64(n.mem.Size()) {
			q.completeLocal(w, StatusLocalError)
			q.advance(cfg.WQEProc)
			return
		}
		payload := n.fabric.getBuf(int(w.Len))
		if err := n.mem.Read(int(w.Local), payload); err != nil {
			n.fabric.putBuf(payload)
			q.completeLocal(w, StatusLocalError)
			q.advance(cfg.WQEProc)
			return
		}
		kind := inSend
		switch w.Opcode {
		case OpWrite:
			kind = inWrite
		case OpWriteImm:
			kind = inWriteImm
		}
		q.issueRemote(w, kind, payload, len(payload))

	case OpFlush:
		q.issueRemote(w, inFlush, nil, 0)

	case OpCAS:
		q.issueRemote(w, inCAS, nil, 16)

	default:
		q.completeLocal(w, StatusLocalError)
		q.advance(cfg.WQEProc)
	}
}

// issueRemote registers w's pending completion, writes the request leg —
// w's operands, payload and the reply routing — once, straight into a
// pooled wire message, transmits it to the peer, and advances the ring
// after the engine occupancy. Response post-processing (a CAS result
// landing in requester memory) is dispatched from the pending op in
// completePending, so issuing an op allocates nothing.
func (q *QP) issueRemote(w *WQE, kind inKind, payload []byte, wireBytes int) {
	f := q.nic.fabric
	seq := q.opTx
	q.opTx++
	q.pending.PushBack(pendingOp{
		at: f.k.Now(), seq: seq,
		wrid: w.WRID, local: w.Local, imm: w.Imm, op: w.Opcode, flags: w.Flags,
	})
	if !q.ackArmed {
		q.armAckTimer()
	}
	wm := f.getWire()
	wm.isAck = false
	m := &wm.msg
	m.kind, m.payload = kind, payload
	m.addr, m.length, m.rkey, m.imm = w.Remote, w.Len, w.Aux1, w.Imm
	m.compare, m.swap = w.Compare, w.Swap
	m.src, m.srcSeq = q, seq
	q.nic.send(q.peer, wireBytes, wm)
	q.advance(f.cfg.WQEProc + f.xmitTime(wireBytes))
}

// completePending resolves one issued remote op with its response: a
// CAS response payload (a pooled scratch buffer owned by handleAck) is
// copied into requester memory first, then the send completion is
// pushed with the resulting status.
func (q *QP) completePending(op *pendingOp, st Status, payload []byte) {
	if st == StatusSuccess && op.op == OpCAS {
		if len(payload) != 8 {
			st = StatusLocalError
		} else if err := q.nic.mem.Write(int(op.local), payload); err != nil {
			st = StatusLocalError
		}
	}
	q.pushSendCompletion(op.flags, op.wrid, op.op, op.imm, st, len(payload))
}

// armAckTimer (re)schedules the transport deadline for the oldest pending
// op. A timer that is stopped before firing never executes a kernel event
// and consumes no RNG, so on a healthy QP the ack timeout is invisible to
// event counts and ordering.
func (q *QP) armAckTimer() {
	if q.pending.Len() == 0 {
		return
	}
	q.ackArmed = true
	q.nic.fabric.k.AtFunc(q.pending.Front().at.Add(ackTimeout), q.ackFn, &q.ackTimer)
}

func (q *QP) stopAckTimer() {
	if q.ackArmed {
		q.ackTimer.Stop()
		q.ackArmed = false
	}
}

// ackExpire fires when the oldest pending op outlived ackTimeout without
// a response: the peer crashed or the wire lost the request or its ACK.
func (q *QP) ackExpire() {
	q.ackArmed = false
	q.flushPending(StatusTimeout)
}

// flushPending fails every un-acked remote op — the expired head with
// first (StatusTimeout on an ack deadline), the rest with StatusFlushed,
// mirroring how a real RC QP enters the error state and flushes its send
// queue. Error completions are pushed even for unsignaled WQEs, so no
// requester fiber is left waiting. Straggler replies to the flushed ops
// are discarded on arrival (see handleAck). The QP itself
// stays usable (the simulation models transparent QP recovery): new ops
// issue normally and start a fresh pending window.
func (q *QP) flushPending(first Status) {
	q.stopAckTimer()
	if q.pending.Len() == 0 {
		return
	}
	st := first
	for q.pending.Len() > 0 {
		op := q.pending.PopFront()
		q.completePending(&op, st, nil)
		st = StatusFlushed
	}
}

func (q *QP) handleAck(seq uint64, st Status, payload []byte) {
	if q.dead {
		return
	}
	if q.pending.Len() == 0 || seq < q.pending.Front().seq {
		// Straggler response: its op was already resolved, by a flush of
		// the pending window (ack timeout) after this reply was sent. Op
		// sequences are never reused, so it matches no pending op. Drop
		// it, but still recycle the scratch buffer it carried.
		q.nic.fabric.putBuf(payload)
		return
	}
	// A sequence gap proves every pending op older than this reply lost
	// its request (or its ack) on the wire: without the check, the reply
	// would pop the wrong pendingOp and report a vanished write as OK.
	// Fail the gapped ops now — faster and more precise than waiting out
	// their full timeout.
	for q.pending.Len() > 0 && q.pending.Front().seq < seq {
		op := q.pending.PopFront()
		q.completePending(&op, StatusTimeout, nil)
	}
	if q.pending.Len() == 0 || q.pending.Front().seq != seq {
		// The op this reply answers was already resolved; drop it.
		q.nic.fabric.putBuf(payload)
		q.rearmOrStopAckTimer()
		return
	}
	op := q.pending.PopFront()
	q.completePending(&op, st, payload)
	// Response payloads (CAS results) are consumed by completePending;
	// recycle the scratch buffer.
	q.nic.fabric.putBuf(payload)
	q.rearmOrStopAckTimer()
}

// rearmOrStopAckTimer retracks the deadline after the pending front moved.
func (q *QP) rearmOrStopAckTimer() {
	if q.pending.Len() == 0 {
		q.stopAckTimer()
	} else {
		q.armAckTimer()
	}
}

// completeLocal pushes a send completion immediately (local-only ops).
func (q *QP) completeLocal(w *WQE, st Status) {
	q.pushSendCompletion(w.Flags, w.WRID, w.Opcode, w.Imm, st, int(w.Len))
}

// completeAfter pushes a send completion after a delay (local ops with
// duration, e.g. MEMCPY). At most one is due at a time: the engine runs
// the next WQE only once this one's occupancy — the same delay, scheduled
// after it — has passed.
func (q *QP) completeAfter(w *WQE, st Status, d sim.Duration) {
	q.localW, q.localSt = *w, st
	q.nic.fabric.k.AfterFunc(d, q.localDoneFn, nil)
}

// pushSendCompletion reports a finished send WQE, given its flags and CQE
// fields; a successful unsignaled one completes silently.
func (q *QP) pushSendCompletion(flags uint8, wrid uint64, op Opcode, imm uint32, st Status, n int) {
	if flags&FlagSignaled == 0 && st == StatusSuccess {
		return
	}
	q.sendCQ.push(CQE{
		QPN: q.qpn, WRID: wrid, Op: op, Status: st, Imm: imm, ByteLen: n,
	})
}

// finishSlot completes a slot with an error without executing it.
func (q *QP) finishSlot(w *WQE, st Status, n int) {
	q.pushSendCompletion(w.Flags, w.WRID, w.Opcode, w.Imm, st, n)
	q.advance(q.nic.fabric.cfg.WQEProc)
}

// advance releases ownership of the head slot, moves past it and schedules
// the next pump after the occupancy delay.
func (q *QP) advance(occupancy sim.Duration) {
	_ = q.setOwned(q.head, false)
	q.head = q.next(q.head)
	q.queued--
	q.pumpBusy = true
	q.nic.fabric.k.AfterFunc(occupancy, q.pumpResumeFn, nil)
}

// enqueueInbox queues a delivered request leg at the responder, which now
// owns it (see wireMsg).
func (q *QP) enqueueInbox(wm *wireMsg) {
	q.inbox.PushBack(wm)
	if !q.inboxBusy && !q.rnrWaiting {
		q.processInbox()
	}
}

// processInbox handles inbound messages in order, paying NIC processing
// cost per message. A SEND/WRITE_WITH_IMM with no posted receive blocks the
// queue (RNR) and retries.
func (q *QP) processInbox() {
	if q.inboxBusy || q.inbox.Len() == 0 || q.nic.down {
		// A down NIC leaves its inbox queued; SetDown(false) re-kicks it.
		return
	}
	wm := q.inbox.Front()
	m := &wm.msg
	if (m.kind == inSend || m.kind == inWriteImm) && q.recvQueue.Len() == 0 {
		if !q.rnrWaiting {
			q.rnrWaiting = true
			q.nic.fabric.k.AfterFunc(q.nic.fabric.cfg.RNRRetryDelay, q.rnrRetryFn, nil)
		}
		return
	}
	q.inbox.PopFront()
	q.inboxBusy = true
	cfg := q.nic.fabric.cfg
	occ := cfg.WQEProc
	st, resp, extra := q.applyInbound(m)
	occ += extra
	q.inSrc, q.inSeq, q.inSt, q.inResp = m.src, m.srcSeq, st, resp
	// The request has been applied to memory; recycle it and its payload
	// before the occupancy delay so back-to-back messages reuse them.
	q.nic.fabric.release(wm)
	q.nic.fabric.k.AfterFunc(occ, q.inboxDoneFn, nil)
}

// finishInbox completes the in-flight inbound message after its occupancy
// delay: it sends the reply (if any) and resumes inbox processing.
func (q *QP) finishInbox() {
	q.inboxBusy = false
	src, seq, st, resp := q.inSrc, q.inSeq, q.inSt, q.inResp
	q.inSrc, q.inResp = nil, nil
	if src != nil {
		// Responses travel the reverse direction with the same FIFO clamp.
		q.nic.sendAck(src, len(resp), seq, st, resp)
	}
	q.processInbox()
}

// applyInbound performs the memory effect of an inbound message and
// returns the reply status/payload plus any extra processing delay.
func (q *QP) applyInbound(m *inMsg) (Status, []byte, sim.Duration) {
	n := q.nic
	switch m.kind {
	case inWrite:
		if _, err := n.lookupMR(m.rkey, m.addr, uint64(len(m.payload)), AccessRemoteWrite); err != nil {
			return StatusRemoteAccessError, nil, 0
		}
		if err := n.mem.Write(int(m.addr), m.payload); err != nil {
			return StatusRemoteAccessError, nil, 0
		}
		return StatusSuccess, nil, 0

	case inWriteImm:
		if _, err := n.lookupMR(m.rkey, m.addr, uint64(len(m.payload)), AccessRemoteWrite); err != nil {
			return StatusRemoteAccessError, nil, 0
		}
		if err := n.mem.Write(int(m.addr), m.payload); err != nil {
			return StatusRemoteAccessError, nil, 0
		}
		r := q.popRecv()
		q.recvCQ.push(CQE{
			QPN: q.qpn, WRID: r.WRID, Op: OpWriteImm, Status: StatusSuccess,
			Imm: m.imm, ByteLen: len(m.payload),
		})
		return StatusSuccess, nil, 0

	case inSend:
		r := q.popRecv()
		if uint64(len(m.payload)) > r.totalLen() {
			q.recvCQ.push(CQE{
				QPN: q.qpn, WRID: r.WRID, Op: OpSend, Status: StatusLocalError,
				ByteLen: len(m.payload),
			})
			return StatusRemoteAccessError, nil, 0
		}
		rest := m.payload
		for _, sge := range r.SGEs {
			if len(rest) == 0 {
				break
			}
			chunk := rest
			if uint64(len(chunk)) > sge.Len {
				chunk = chunk[:sge.Len]
			}
			if err := n.mem.Write(int(sge.Addr), chunk); err != nil {
				q.recvCQ.push(CQE{
					QPN: q.qpn, WRID: r.WRID, Op: OpSend, Status: StatusLocalError,
					ByteLen: len(m.payload),
				})
				return StatusRemoteAccessError, nil, 0
			}
			rest = rest[len(chunk):]
		}
		q.recvCQ.push(CQE{
			QPN: q.qpn, WRID: r.WRID, Op: OpSend, Status: StatusSuccess,
			Imm: m.imm, ByteLen: len(m.payload),
		})
		return StatusSuccess, nil, 0

	case inFlush:
		mr, err := n.lookupMR(m.rkey, m.addr, m.length, AccessRemoteRead)
		if err != nil {
			return StatusRemoteAccessError, nil, 0
		}
		lo, ln := int(m.addr), int(m.length)
		if m.length == 0 {
			lo, ln = int(mr.Off), int(mr.Len)
		}
		flushed, err := n.mem.Flush(lo, ln)
		if err != nil {
			return StatusRemoteAccessError, nil, 0
		}
		cfg := n.fabric.cfg
		cost := cfg.CacheFlushBase + sim.Duration(flushed/64+1)*cfg.CacheFlushPerLine
		return StatusSuccess, nil, cost

	case inCAS:
		if _, err := n.lookupMR(m.rkey, m.addr, 8, AccessRemoteAtomic); err != nil {
			return StatusRemoteAccessError, nil, 0
		}
		cur, err := n.mem.Slice(int(m.addr), 8)
		if err != nil {
			return StatusRemoteAccessError, nil, 0
		}
		orig := binary.LittleEndian.Uint64(cur)
		if orig == m.compare {
			var nb [8]byte
			binary.LittleEndian.PutUint64(nb[:], m.swap)
			if err := n.mem.Write(int(m.addr), nb[:]); err != nil {
				return StatusRemoteAccessError, nil, 0
			}
		}
		ob := n.fabric.getBuf(8) // the requester's handleAck returns it to the pool
		binary.LittleEndian.PutUint64(ob, orig)
		return StatusSuccess, ob, 0

	default:
		return StatusLocalError, nil, 0
	}
}

func (q *QP) popRecv() RecvWQE {
	return q.recvQueue.PopFront()
}
