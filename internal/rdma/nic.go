package rdma

import (
	"fmt"

	"hyperloop/internal/nvm"
	"hyperloop/internal/sim"
)

// Access flags for memory regions.
type Access uint8

// Memory-region access rights.
const (
	AccessLocalWrite Access = 1 << iota
	AccessRemoteRead
	AccessRemoteWrite
	AccessRemoteAtomic
)

// MemoryRegion is a registered window of host memory. Remote operations
// name it by RKey and are bounds- and rights-checked against it.
type MemoryRegion struct {
	RKey   uint32
	Off    uint64
	Len    uint64
	Rights Access
}

// Contains reports whether [addr, addr+n) lies inside the region.
func (m *MemoryRegion) Contains(addr, n uint64) bool {
	return addr >= m.Off && addr+n <= m.Off+m.Len && addr+n >= addr
}

// CQE is a completion-queue entry.
type CQE struct {
	QPN     uint32
	WRID    uint64
	Op      Opcode
	Status  Status
	Imm     uint32
	ByteLen int
	At      sim.Time
}

// Status reports how a work request completed.
type Status uint8

// Completion statuses.
const (
	StatusSuccess Status = iota + 1
	StatusRemoteAccessError
	StatusLocalError
	StatusFlushed // QP torn down / host down
	// StatusTimeout reports that the operation's transport ACK did not
	// arrive within the ack timeout — the peer crashed or the wire lost
	// the message. The rest of the pending window flushes as StatusFlushed.
	StatusTimeout
)

// String returns the status mnemonic.
func (s Status) String() string {
	switch s {
	case StatusSuccess:
		return "OK"
	case StatusRemoteAccessError:
		return "REMOTE_ACCESS_ERR"
	case StatusLocalError:
		return "LOCAL_ERR"
	case StatusFlushed:
		return "FLUSHED"
	case StatusTimeout:
		return "TIMEOUT"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// CQ is a completion queue. It has one delivery mode: a drain handler
// consumes completions in batches (modelling an interrupt/event channel);
// a CQ with no handler counts its completions and keeps none. WAIT WQEs
// subscribe to the cumulative completion count with a wake threshold, so
// a WAIT armed for N completions wakes once when the N-th arrives instead
// of re-checking on every push.
//
// Re-entrancy rules for the drain handler: it runs synchronously inside
// the push — that is, inside the simulation event that produced the
// completion — so it sees the CQ with the new entry already accounted
// (Total includes it). A handler may post work requests, ring doorbells,
// schedule events, and push onto *other* CQs, but every path that would
// complete back onto the same CQ goes through a scheduled event, never
// synchronously; a handler that does trigger a same-instant push sees it
// folded into a follow-up batch of the same drain loop, not a nested
// handler call.
type CQ struct {
	nic *NIC
	cqn uint32

	total        int64 // cumulative completions ever pushed
	okTotal      int64 // cumulative successful completions (WAIT fuel)
	waitConsumed int64 // successful completions consumed by WAIT WQEs

	drainHandler func([]CQE)
	batch        []CQE // completions awaiting the drain handler
	spare        []CQE // second buffer; batch/spare alternate, zero-alloc
	draining     bool  // drain loop active; nested pushes only append

	waiters []cqWaiter // parked WAIT WQEs, woken at their thresholds

	dead bool // destroyed; see Destroy
}

// cqWaiter is a parked WAIT WQE: fn re-kicks the owning send queue once
// the CQ's cumulative completion count reaches minTotal. The threshold is
// a wake filter, not a grant — the woken engine re-validates against live
// counters and re-parks (with a fresh threshold) if another consumer got
// there first.
type cqWaiter struct {
	fn       func()
	minTotal int64
	onOK     bool // threshold counts successful completions only
}

// CQN returns the completion queue number.
func (c *CQ) CQN() uint32 { return c.cqn }

// SetDrainHandler installs a batched handler: each wake receives every
// completion that is ready — the batch — and consumes them. Any
// completions pushed while the handler runs are delivered in a follow-up
// batch of the same drain loop rather than nested calls (see the CQ
// re-entrancy rules). Completions pushed before installation were only
// counted. The batch slice is owned by the CQ and recycled across wakes;
// handlers must not retain it.
func (c *CQ) SetDrainHandler(h func([]CQE)) { c.drainHandler = h }

// Total returns the cumulative number of completions ever delivered.
func (c *CQ) Total() int64 { return c.total }

func (c *CQ) push(e CQE) {
	if c.dead {
		return
	}
	e.At = c.nic.fabric.k.Now()
	c.total++
	if e.Status == StatusSuccess {
		c.okTotal++
	}
	c.nic.fabric.cqes++
	if c.drainHandler != nil {
		c.batch = append(c.batch, e)
		if !c.draining {
			c.draining = true
			for len(c.batch) > 0 {
				ready := c.batch
				c.batch = c.spare[:0]
				c.drainHandler(ready)
				c.spare = ready[:0]
			}
			c.draining = false
		}
	}
	c.wakeWaiters()
}

// wakeWaiters fires every parked waiter whose threshold is reached,
// preserving subscription order among survivors. Waiter callbacks only
// schedule doorbell events — they never subscribe synchronously — so the
// in-place filter cannot observe a mutating waiter list.
func (c *CQ) wakeWaiters() {
	if len(c.waiters) == 0 {
		return
	}
	kept := c.waiters[:0]
	for _, w := range c.waiters {
		cnt := c.total
		if w.onOK {
			cnt = c.okTotal
		}
		if cnt >= w.minTotal {
			w.fn()
		} else {
			kept = append(kept, w)
		}
	}
	for i := len(kept); i < len(c.waiters); i++ {
		c.waiters[i] = cqWaiter{}
	}
	c.waiters = kept
}

// subscribe parks fn until the cumulative completion count reaches
// minTotal. The caller re-validates on wake; see cqWaiter.
func (c *CQ) subscribe(fn func(), minTotal int64) {
	c.waiters = append(c.waiters, cqWaiter{fn: fn, minTotal: minTotal})
}

// subscribeOK parks fn until the cumulative count of *successful*
// completions reaches minOK — the wake filter for consuming WAIT WQEs,
// which error completions must never satisfy.
func (c *CQ) subscribeOK(fn func(), minOK int64) {
	c.waiters = append(c.waiters, cqWaiter{fn: fn, minTotal: minOK, onOK: true})
}

// Destroy removes the completion queue from service: handlers and parked
// waiters are dropped, the CQN is retired
// (WAIT WQEs that still name it complete with a local error), and any
// straggler completion pushed through a retained pointer is discarded.
// Owners destroy a CQ together with the QPs that complete into it.
func (c *CQ) Destroy() {
	if c.dead {
		return
	}
	c.dead = true
	c.total, c.okTotal, c.waitConsumed = 0, 0, 0
	c.drainHandler = nil
	c.batch, c.spare = nil, nil
	c.draining = false
	c.waiters = nil
	delete(c.nic.cqs, c.cqn)
}

// NIC is one host's RDMA network interface. Its WQE engine runs entirely in
// simulation events — no cpusim process is involved — which is precisely
// what makes the HyperLoop datapath immune to host CPU contention.
type NIC struct {
	fabric *Fabric
	host   string
	mem    *nvm.Device
	down   bool

	mrs     map[uint32]*MemoryRegion
	qps     map[uint32]*QP
	cqs     map[uint32]*CQ
	nextKey uint32
	nextQPN uint32
	nextCQN uint32

	wqesExecuted int64
	bytesTx      int64
}

// Host returns the NIC's host name.
func (n *NIC) Host() string { return n.host }

// Memory returns the NIC's host memory device.
func (n *NIC) Memory() *nvm.Device { return n.mem }

// Fabric returns the owning fabric.
func (n *NIC) Fabric() *Fabric { return n.fabric }

// SetDown simulates host/NIC failure and recovery. While down, outgoing
// messages are lost at the sender, in-flight deliveries are dropped at
// arrival, and the WQE engines stall; peers observe ack timeouts (error
// CQEs), never eternal hangs. Restarting re-kicks every surviving send
// ring and inbox in QPN order — a fixed order, never map iteration, so a
// restart schedules the same event sequence on every run.
func (n *NIC) SetDown(down bool) {
	if n.down == down {
		return
	}
	n.down = down
	if down {
		return
	}
	for qpn := uint32(1); qpn <= n.nextQPN; qpn++ {
		q := n.qps[qpn]
		if q == nil {
			continue
		}
		q.Doorbell()
		if q.inbox.Len() > 0 && !q.inboxBusy && !q.rnrWaiting {
			q.processInbox()
		}
	}
}

// Down reports whether the NIC is failed.
func (n *NIC) Down() bool { return n.down }

// RegisterMR registers [off, off+len) of host memory with the given rights
// and returns the region (its RKey names it remotely).
func (n *NIC) RegisterMR(off, length uint64, rights Access) (*MemoryRegion, error) {
	if off+length > uint64(n.mem.Size()) || off+length < off {
		return nil, fmt.Errorf("rdma %s: MR [%d,+%d) exceeds memory size %d",
			n.host, off, length, n.mem.Size())
	}
	n.nextKey++
	mr := &MemoryRegion{RKey: n.nextKey, Off: off, Len: length, Rights: rights}
	n.mrs[mr.RKey] = mr
	return mr, nil
}

// lookupMR validates a remote access against a registered region.
func (n *NIC) lookupMR(rkey uint32, addr, length uint64, need Access) (*MemoryRegion, error) {
	mr, ok := n.mrs[rkey]
	if !ok {
		return nil, fmt.Errorf("rdma %s: unknown rkey %d", n.host, rkey)
	}
	if mr.Rights&need != need {
		return nil, fmt.Errorf("rdma %s: rkey %d lacks rights %b", n.host, rkey, need)
	}
	if !mr.Contains(addr, length) {
		return nil, fmt.Errorf("rdma %s: rkey %d access [%d,+%d) out of window [%d,+%d)",
			n.host, rkey, addr, length, mr.Off, mr.Len)
	}
	return mr, nil
}

// CreateCQ allocates a completion queue.
func (n *NIC) CreateCQ() *CQ {
	n.nextCQN++
	cq := &CQ{nic: n, cqn: n.nextCQN}
	n.cqs[cq.cqn] = cq
	return cq
}

// CQ returns the completion queue with the given number, or nil.
func (n *NIC) CQ(cqn uint32) *CQ { return n.cqs[cqn] }

// QPConfig describes a queue pair's send ring placement.
type QPConfig struct {
	// SendRingOff is the host-memory offset of the send WQE ring. The ring
	// occupies SendSlots*WQESize bytes. In HyperLoop groups the caller
	// registers this range as an MR so peers can patch pre-posted WQEs.
	SendRingOff uint64
	SendSlots   int
	SendCQ      *CQ
	RecvCQ      *CQ
}

// CreateQP allocates a queue pair with its send ring at cfg.SendRingOff.
func (n *NIC) CreateQP(cfg QPConfig) (*QP, error) {
	if cfg.SendSlots <= 0 {
		return nil, fmt.Errorf("rdma %s: QP needs at least 1 send slot", n.host)
	}
	end := cfg.SendRingOff + uint64(cfg.SendSlots)*WQESize
	if end > uint64(n.mem.Size()) || end < cfg.SendRingOff {
		return nil, fmt.Errorf("rdma %s: send ring [%d,+%d slots) exceeds memory",
			n.host, cfg.SendRingOff, cfg.SendSlots)
	}
	if cfg.SendCQ == nil || cfg.RecvCQ == nil {
		return nil, fmt.Errorf("rdma %s: QP requires send and recv CQs", n.host)
	}
	n.nextQPN++
	qp := &QP{
		nic:       n,
		qpn:       n.nextQPN,
		ringOff:   cfg.SendRingOff,
		ringSlots: cfg.SendSlots,
		sendCQ:    cfg.SendCQ,
		recvCQ:    cfg.RecvCQ,
	}
	qp.initCallbacks()
	n.qps[qp.qpn] = qp
	return qp, nil
}

// QP returns the queue pair with the given number, or nil.
func (n *NIC) QP(qpn uint32) *QP { return n.qps[qpn] }

// Idle reports whether the NIC holds no live queue pair or completion
// queue: everything ever created on it has been destroyed.
func (n *NIC) Idle() bool { return len(n.qps) == 0 && len(n.cqs) == 0 }

// Stats reports WQEs executed and payload bytes transmitted by this NIC.
func (n *NIC) Stats() (wqes, bytesTx int64) { return n.wqesExecuted, n.bytesTx }

// wireMsg is one wire message: either a request leg carrying an inMsg to
// the responder's inbox or an ack leg carrying a response back to the
// requester. Structs are pooled on the fabric and each carries its own
// cached fire closure, so a message on the wire costs one kernel event and
// zero allocations. A message moves by reference, and exactly one party
// owns it at each step:
//
//   - the issuing QP takes it from the pool and fills it once (issueRemote,
//     sendAck);
//   - on the wire, its delivery event (fire) owns it;
//   - a delivered request leg is queued in the responder's inbox, which
//     owns it until processInbox has applied it and returns it and its
//     payload to the pool;
//   - a delivered ack leg returns to the pool at once, and handleAck
//     returns its payload;
//   - a lost message — sender down, dropped on the link, receiver down or
//     destroyed at arrival, suppressed as a duplicate, or still queued in
//     an inbox when its QP is destroyed — returns with its payload.
//
// An injected duplicate is a second struct that shares the original's
// payload (dup is set); the receiver's psn dedup always discards one of
// the pair, and the duplicate returns its struct but never the buffer, so
// every payload goes back to the pool exactly once.
type wireMsg struct {
	f      *Fabric
	to     *QP
	psn    uint64
	isAck  bool
	dup    bool  // shares the original's payload; never returns it
	msg    inMsg // request leg; msg.payload is the ack leg's response too
	seq    uint64
	st     Status
	fireFn func()
}

// fire is the delivery event for one wire message. The receiver-side
// checks run at delivery time: a receiver that died while the message was
// in flight loses it (the silent-drop contract is backed by the sender's
// ack timeout, so the loss surfaces as an error CQE instead of an eternal
// hang), and a duplicate of an already-delivered psn is discarded exactly
// as RC transport dedup would discard a retransmission. An ack's struct
// is recycled before its payload is handed on, so re-entrant sends inside
// the handler can reuse it.
func (wm *wireMsg) fire() {
	f, to := wm.f, wm.to
	if to.nic.down || to.dead {
		// A destroyed QP loses in-flight messages exactly like a dead NIC;
		// the sender's ack timeout bounds the loss.
		f.faultStats.Drops++
		f.release(wm)
		return
	}
	if wm.psn < to.wireRx {
		f.faultStats.DupsSuppressed++
		f.release(wm)
		return
	}
	to.wireRx = wm.psn + 1
	if wm.isAck {
		seq, st, payload := wm.seq, wm.st, wm.msg.payload
		f.putWire(wm)
		to.handleAck(seq, st, payload)
		return
	}
	to.enqueueInbox(wm)
}

// sendAck transmits an ack/response leg back to the requester.
func (n *NIC) sendAck(to *QP, size int, seq uint64, st Status, payload []byte) {
	wm := n.fabric.getWire()
	wm.isAck = true
	wm.seq, wm.st, wm.msg.payload = seq, st, payload
	n.send(to, size, wm)
}

// send transmits a message to a peer QP with FIFO ordering per direction.
// Loopback traffic (same NIC) skips the wire entirely and costs only NIC
// processing time. The installed fault plan (if any) is consulted per wire
// message: partitioned or randomly dropped messages still pay their
// transmit-side costs but never deliver, and a duplicated message
// schedules a second delivery carrying the same wire sequence number,
// which the receiver's dedup discards. Every loss is bounded by the
// requester's ack timeout (see QP.ackExpire) — nothing hangs on a drop.
func (n *NIC) send(to *QP, size int, wm *wireMsg) {
	f := n.fabric
	if n.down {
		// A dead NIC transmits nothing; its own pending window flushes via
		// the ack timeout.
		f.faultStats.Drops++
		f.release(wm)
		return
	}
	var d sim.Duration
	dup := false
	if to.nic == n {
		d = f.cfg.WQEProc
	} else {
		f.msgs++
		f.bytesOnWire += int64(size + f.cfg.HeaderBytes)
		n.bytesTx += int64(size)
		if lf := f.linkFault(n.host, to.nic.host); lf != nil {
			if lf.partitioned(f.k.Now()) || (lf.DropProb > 0 && f.faultRNG.Bernoulli(lf.DropProb)) {
				f.faultStats.Drops++
				f.release(wm)
				return // lost on the wire; transmit costs already paid
			}
			d += lf.ExtraDelay
			dup = lf.DupProb > 0 && f.faultRNG.Bernoulli(lf.DupProb)
		}
		d += f.cfg.PropDelay + f.xmitTime(size)
		d = f.rng.Jitter(d, f.cfg.JitterFrac)
	}
	at := f.k.Now().Add(d)
	if at < to.lastArrival {
		at = to.lastArrival // preserve per-QP FIFO despite jitter
	}
	to.lastArrival = at
	psn := to.wireTx
	to.wireTx++
	wm.to, wm.psn = to, psn
	if dup {
		// An injected duplicate is a second delivery event carrying the same
		// wire sequence number; the receiver's psn dedup discards one.
		f.faultStats.Dups++
		wm2 := f.getWire()
		wm2.to, wm2.psn, wm2.isAck, wm2.dup = to, psn, wm.isAck, true
		wm2.msg, wm2.seq, wm2.st = wm.msg, wm.seq, wm.st
		f.k.AtFunc(at, wm.fireFn, nil)
		f.k.AtFunc(at, wm2.fireFn, nil)
		return
	}
	f.k.AtFunc(at, wm.fireFn, nil)
}
