package txn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"hyperloop/internal/sim"
)

// The coordinator commit log closes the classic 2PC atomicity hole: a
// coordinator that crashes inside Commit — after executing and unlocking
// some participants but not others — must not let recovery roll the
// stragglers back, or half of a committed transaction vanishes. Before
// entering phase two the coordinator durably appends a commit record
// (txnID, lock token, participant shard IDs) to its *own* replicated
// store (a plain gWRITE + gFLUSH through the Store's data region), and
// truncates it once every participant is done. Recovery consults the log
// first: a prepared participant named by a record rolls *forward*
// (RecoverCommit); everything else still presumes abort, which stays
// sound because the record is written before any participant executes.
//
// Records live in a fixed array of slots inside the store's data region —
// not in its WAL ring — so transactions truncate independently, in any
// order, with one 8-byte invalidating write each.
//
// The truncate is off the committing caller's path: Commit posts it
// (PostTruncate) and returns. A record that outlives its transaction is
// harmless until the same coordinator locks a shard it names — if that
// next transaction dies after an append and before its own commit point,
// recovery finds a token-locked shard named by the stale record and rolls
// forward data that was never committed. Hence the clean-log rule, the one
// invariant that makes the lazy truncate sound:
//
//	no append of a transaction is posted while the commit log may hold a
//	record of this coordinator that is not that transaction's.
//
// A slot is dirty from the moment its record is posted — a failed Append
// may have left it on some member — until a truncate of it is acknowledged,
// and Settle, which Prepare runs after its lock round and before its append
// round, waits for every truncate that has been asked for. The rule is per
// coordinator: it assumes the coordinator drives one transaction at a time
// (every caller in the repo does), so that at Prepare no record of a
// transaction still running can exist. Concurrent same-token transactions
// that share shards would need it per shard — settle the records naming the
// shards being locked — and a record whose transaction was left in doubt
// stays until recovery, as ErrInDoubt says.

// Commit-record framing inside a slot.
const (
	clMagic   = 0x484C4350    // "HLCP": HyperLoop commit point
	clHeader  = 4 + 8 + 8 + 4 // magic, txnID, lock token, shard count
	clTrailer = 4             // crc32 over header + shard IDs
)

// ErrCommitLogFull reports that every slot holds a live commit record:
// more transactions are between commit point and truncation than the log
// was provisioned for. Recover or retry the in-flight transactions first.
var ErrCommitLogFull = errors.New("txn: commit log full")

// CommitRecord is one durable commit point: transaction txnID, driven by
// the coordinator holding Token on every participant's group lock, spans
// the participants named by Shards.
type CommitRecord struct {
	TxnID  uint64
	Token  uint64
	Shards []int
}

// CommitLogSlotSize returns the per-record slot footprint for records
// naming at most maxSpan participants.
func CommitLogSlotSize(maxSpan int) int {
	n := clHeader + 4*maxSpan + clTrailer
	return (n + 7) &^ 7
}

// CommitLogSizeFor returns the data-region size a commit-log store must
// provide to hold slots concurrent records of at most maxSpan
// participants. Callers size the store's Config.DataSize with it.
func CommitLogSizeFor(slots, maxSpan int) int {
	return slots * CommitLogSlotSize(maxSpan)
}

// CommitLog is a coordinator's replicated commit-point log over its own
// Store. Like the Store beneath it, it is driven by simulation fibers on
// one kernel and is not safe for concurrent OS-thread use.
type CommitLog struct {
	s        *Store
	slotSize int
	nextID   uint64
	slots    []clSlot
}

// clSlot is the client's account of one record slot.
type clSlot struct {
	id       uint64      // txnID of the record posted into the slot, 0 when the slot is free
	truncate bool        // the record's truncate has been asked for and is not acknowledged yet
	sig      *sim.Signal // that truncate's post; nil when it could not be posted
}

// clZero overwrites a record's magic (and half its txnID): one 8-byte
// durable write invalidates the slot on every member.
var clZero [8]byte

// NewCommitLog carves the store's data region into commit-record slots
// sized for transactions spanning at most maxSpan participants. The store
// must be the coordinator's own replicated store — appends ride its
// group's gWRITE+gFLUSH path, so a record is durable on every member of
// the coordinator's group before phase two begins.
func NewCommitLog(s *Store, maxSpan int) (*CommitLog, error) {
	if s == nil || maxSpan < 1 {
		return nil, fmt.Errorf("%w: commit log needs a store and a positive max span", ErrBadArgument)
	}
	size := CommitLogSlotSize(maxSpan)
	n := s.DataSize() / size
	if n < 1 {
		return nil, fmt.Errorf("%w: data region of %d bytes holds no %d-byte commit slot",
			ErrBadArgument, s.DataSize(), size)
	}
	return &CommitLog{s: s, slotSize: size, nextID: 1, slots: make([]clSlot, n)}, nil
}

// Slots returns how many commit records can be in flight at once.
func (l *CommitLog) Slots() int { return len(l.slots) }

// slotOf returns the slot holding txnID's record (the first free slot for
// txnID 0), or -1.
func (l *CommitLog) slotOf(txnID uint64) int {
	for i := range l.slots {
		if l.slots[i].id == txnID {
			return i
		}
	}
	return -1
}

// Append durably replicates a commit record for a transaction holding
// token on the groups named by shards, and returns the assigned txnID.
// The record is on every member of the coordinator's group when Append
// returns — the transaction is committed from this instant, whatever
// happens to the coordinator afterwards. When Append fails some member may
// hold the record all the same: its truncate is asked for at once and the
// slot stays dirty until Settle has seen it acknowledged. With no free slot
// Append settles before it reports ErrCommitLogFull.
func (l *CommitLog) Append(f *sim.Fiber, token uint64, shards []int) (uint64, error) {
	if max := (l.slotSize - clHeader - clTrailer) / 4; len(shards) > max {
		return 0, fmt.Errorf("%w: %d participants exceed the %d-participant slot", ErrBadArgument, len(shards), max)
	}
	slot := l.slotOf(0)
	if slot < 0 {
		err := l.Settle(f)
		if slot = l.slotOf(0); slot < 0 {
			return 0, errors.Join(ErrCommitLogFull, err)
		}
	}
	id := l.nextID
	l.nextID++
	buf := l.s.scratch(l.slotSize) // WriteData copies it into the mirror
	clear(buf)
	binary.LittleEndian.PutUint32(buf[0:], clMagic)
	binary.LittleEndian.PutUint64(buf[4:], id)
	binary.LittleEndian.PutUint64(buf[12:], token)
	binary.LittleEndian.PutUint32(buf[20:], uint32(len(shards)))
	p := clHeader
	for _, s := range shards {
		binary.LittleEndian.PutUint32(buf[p:], uint32(s))
		p += 4
	}
	binary.LittleEndian.PutUint32(buf[p:], crc32.ChecksumIEEE(buf[:p]))
	l.slots[slot].id = id
	if err := l.s.WriteData(f, slot*l.slotSize, buf); err != nil {
		l.PostTruncate(id)
		return 0, err
	}
	return id, nil
}

// PostTruncate asks for txnID's commit record to be durably removed —
// every participant is done, so recovery no longer needs it — without
// waiting: the slot is free once Settle has seen the acknowledgement. An
// unknown (already truncated) txnID is a no-op, as is asking twice.
func (l *CommitLog) PostTruncate(txnID uint64) {
	slot := l.slotOf(txnID)
	if txnID == 0 || slot < 0 || l.slots[slot].truncate {
		return
	}
	sl := &l.slots[slot]
	sl.truncate = true
	off := l.s.dataOff + slot*l.slotSize
	if err := l.s.r.WriteLocal(off, clZero[:]); err == nil {
		sl.sig, _ = l.s.r.WriteAsync(off, len(clZero), true) // not posted: Settle issues it
	}
}

// Settle waits until every truncate asked for has been acknowledged, which
// frees its slot. One that was not acknowledged (or could not be posted) is
// issued once more, blocking; if that fails too the slot stays dirty and
// Settle reports it — the caller must not append under the clean-log rule,
// and a later Settle (Router.Recover runs one) tries again.
func (l *CommitLog) Settle(f *sim.Fiber) error {
	var errs []error
	for i := range l.slots {
		sl := &l.slots[i]
		if !sl.truncate {
			continue
		}
		acked := false
		if sl.sig != nil {
			acked = f.Await(sl.sig) == nil
			sl.sig = nil
		}
		if !acked {
			if err := l.s.WriteData(f, i*l.slotSize, clZero[:]); err != nil {
				errs = append(errs, fmt.Errorf("txn %d: commit-record truncate: %w", sl.id, err))
				continue
			}
		}
		*sl = clSlot{}
	}
	return errors.Join(errs...)
}

// Truncate durably removes txnID's commit record and waits for it (and for
// any other truncate still out): PostTruncate, then Settle. Recovery uses
// it.
func (l *CommitLog) Truncate(f *sim.Fiber, txnID uint64) error {
	l.PostTruncate(txnID)
	return l.Settle(f)
}

// Records scans the log and returns every live commit record. It also
// refreshes the client-side slot account from the image, so a coordinator
// that restarted over an existing store (a fresh CommitLog over old
// records) can Truncate what it finds. A slot whose truncate has been
// asked for is neither live nor free until Settle has dealt with it.
func (l *CommitLog) Records() ([]CommitRecord, error) {
	var out []CommitRecord
	for i := range l.slots {
		sl := &l.slots[i]
		if sl.truncate {
			continue
		}
		buf, err := l.s.ViewData(i*l.slotSize, l.slotSize)
		if err != nil {
			return nil, err
		}
		rec, ok := decodeCommitRecord(buf)
		if !ok {
			sl.id = 0
			continue
		}
		sl.id = rec.TxnID
		if rec.TxnID >= l.nextID {
			l.nextID = rec.TxnID + 1
		}
		out = append(out, rec)
	}
	return out, nil
}

// decodeCommitRecord parses one slot image, rejecting empty and torn
// slots by magic and CRC.
func decodeCommitRecord(buf []byte) (CommitRecord, bool) {
	var rec CommitRecord
	if len(buf) < clHeader+clTrailer {
		return rec, false
	}
	if binary.LittleEndian.Uint32(buf[0:]) != clMagic {
		return rec, false
	}
	n := int(binary.LittleEndian.Uint32(buf[20:]))
	if n < 0 || clHeader+4*n+clTrailer > len(buf) {
		return rec, false
	}
	p := clHeader + 4*n
	if crc32.ChecksumIEEE(buf[:p]) != binary.LittleEndian.Uint32(buf[p:]) {
		return rec, false
	}
	rec.TxnID = binary.LittleEndian.Uint64(buf[4:])
	rec.Token = binary.LittleEndian.Uint64(buf[12:])
	rec.Shards = make([]int, n)
	for i := 0; i < n; i++ {
		rec.Shards[i] = int(binary.LittleEndian.Uint32(buf[clHeader+4*i:]))
	}
	return rec, true
}
