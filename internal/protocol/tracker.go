package protocol

import (
	"encoding/binary"
	"errors"

	"hyperloop/internal/nvm"
	"hyperloop/internal/sim"
)

// OpKind distinguishes the four group primitives on the wire. The values
// are the shared op encoding: every protocol's metadata header carries
// them as a little-endian uint32.
type OpKind uint32

// The group primitives.
const (
	KindWrite OpKind = iota + 1
	KindCAS
	KindMemcpy
	KindFlush
)

// Op carries one operation's arguments through metadata building and the
// client-side local apply.
type Op struct {
	Off, Size int
	Src, Dst  int
	Old, New  uint64
	Exec      []bool
	Durable   bool
}

// Pending tracks a client-issued operation awaiting its group ACK.
type Pending struct {
	Kind    OpKind
	Sig     *sim.Signal
	Results []uint64
	Started sim.Time
	timer   *sim.Timer
}

// Tracker owns the client-side ack/credit bookkeeping every protocol
// shares: sequence assignment, the in-flight window, per-op timeout
// timers, issue/complete/retry counters, and fail-everything-on-Close.
// It schedules kernel events only when a timeout is configured, so a
// datapath moved onto it keeps a byte-identical event stream.
type Tracker struct {
	k            *sim.Kernel
	depth        int
	opTimeout    sim.Duration
	maxRetries   int
	retryBackoff sim.Duration
	errTimeout   error // fired into pending signals on timeout
	errClosed    error // fired into pending signals on Close

	nextSeq  uint64
	inflight map[uint64]*Pending

	issued    int64
	completed int64
	retries   int64
	closed    bool
}

// NewTracker builds the bookkeeping for a group with the given window
// depth and timeout/retry policy. errTimeout and errClosed are the
// owning package's sentinels (wrapping the canonical ones via WrapErr).
func NewTracker(k *sim.Kernel, depth int, opTimeout sim.Duration,
	maxRetries int, retryBackoff sim.Duration, errTimeout, errClosed error) *Tracker {
	return &Tracker{
		k: k, depth: depth,
		opTimeout: opTimeout, maxRetries: maxRetries, retryBackoff: retryBackoff,
		errTimeout: errTimeout, errClosed: errClosed,
		inflight: make(map[uint64]*Pending),
	}
}

// Closed reports whether Close ran.
func (t *Tracker) Closed() bool { return t.closed }

// InFlight returns operations awaiting their group ACK.
func (t *Tracker) InFlight() int { return len(t.inflight) }

// HasWindow reports whether another operation fits the in-flight window.
// Two window slots stay reserved so the pre-armed chains for sequence
// seq+Depth are always re-armed before seq wraps onto their ring slots.
func (t *Tracker) HasWindow() bool { return len(t.inflight) < t.depth-2 }

// NextSeq assigns the next operation sequence number.
func (t *Tracker) NextSeq() uint64 {
	seq := t.nextSeq
	t.nextSeq++
	return seq
}

// Track registers the pending op for seq and arms its timeout timer (if
// the tracker has one). Call it at the same point the datapath is ready
// to transmit — the timer is a kernel event, so its arming position is
// part of the deterministic event stream.
func (t *Tracker) Track(seq uint64, kind OpKind) *Pending {
	op := &Pending{Kind: kind, Sig: sim.NewSignal(), Started: t.k.Now()}
	t.inflight[seq] = op
	if t.opTimeout > 0 {
		op.timer = t.k.After(t.opTimeout, func() {
			if _, ok := t.inflight[seq]; ok {
				delete(t.inflight, seq)
				op.Sig.Fire(t.errTimeout)
			}
		})
	}
	return op
}

// Complete removes seq from the window, stops its timer and counts the
// completion, returning the pending op — or nil for a late ACK that
// arrived after a timeout already resolved the op.
func (t *Tracker) Complete(seq uint64) *Pending {
	op, ok := t.inflight[seq]
	if !ok {
		return nil
	}
	delete(t.inflight, seq)
	if op.timer != nil {
		op.timer.Stop()
	}
	t.completed++
	return op
}

// Abort removes seq from the window without counting a completion — for
// an issue path that tracked the op and then failed before transmission.
func (t *Tracker) Abort(seq uint64) {
	if op, ok := t.inflight[seq]; ok {
		delete(t.inflight, seq)
		if op.timer != nil {
			op.timer.Stop()
		}
	}
}

// Lookup returns seq's pending op without completing it (nil if absent).
// Quorum protocols use it to accumulate per-member results before the
// ack threshold is reached.
func (t *Tracker) Lookup(seq uint64) *Pending { return t.inflight[seq] }

// MarkIssued counts a successfully transmitted operation.
func (t *Tracker) MarkIssued() { t.issued++ }

// Stats reports operations issued and completed.
func (t *Tracker) Stats() (issued, completed int64) { return t.issued, t.completed }

// Retried reports timed-out operations re-issued by the blocking paths.
func (t *Tracker) Retried() int64 { return t.retries }

// Retry runs an idempotent async issue function, awaiting its signal and
// re-issuing on the tracker's timeout error up to MaxRetries extra
// attempts with linear backoff. Only the blocking forms of idempotent
// primitives use it; gCAS is never retried.
func (t *Tracker) Retry(f *sim.Fiber, issue func() (*sim.Signal, error)) error {
	for attempt := 0; ; attempt++ {
		sig, err := issue()
		if err == nil {
			err = f.Await(sig)
		}
		if err == nil || !errors.Is(err, t.errTimeout) || attempt >= t.maxRetries {
			return err
		}
		t.retries++
		if t.retryBackoff > 0 {
			f.Sleep(t.retryBackoff * sim.Duration(attempt+1))
		}
	}
}

// Close fails every in-flight operation with the tracker's closed error
// and rejects further tracking. Safe to call twice.
func (t *Tracker) Close() {
	if t.closed {
		return
	}
	t.closed = true
	for seq, op := range t.inflight {
		if op.timer != nil {
			op.timer.Stop()
		}
		delete(t.inflight, seq)
		op.Sig.Fire(t.errClosed)
	}
}

// ApplyLocal mirrors an operation on the client's own copy, exactly as
// §4.1 prescribes: the client performs the memory operation in its own
// region while the replica NICs (or CPUs) perform the same operation in
// theirs. Durability of the client's copy is the client CPU's job.
func ApplyLocal(mem *nvm.Device, kind OpKind, p Op) error {
	switch kind {
	case KindWrite, KindFlush:
		if p.Durable || kind == KindFlush {
			if _, err := mem.Flush(p.Off, p.Size); err != nil {
				return err
			}
		}
	case KindMemcpy:
		// Device.Write copies with memmove semantics, so the source view
		// may overlap the destination.
		data, err := mem.Slice(p.Src, p.Size)
		if err != nil {
			return err
		}
		if err := mem.Write(p.Dst, data); err != nil {
			return err
		}
		if p.Durable {
			if _, err := mem.Flush(p.Dst, p.Size); err != nil {
				return err
			}
		}
	case KindCAS:
		cur, err := mem.Slice(p.Off, 8)
		if err != nil {
			return err
		}
		if binary.LittleEndian.Uint64(cur) == p.Old {
			var nb [8]byte
			binary.LittleEndian.PutUint64(nb[:], p.New)
			if err := mem.Write(p.Off, nb[:]); err != nil {
				return err
			}
		}
	}
	return nil
}
