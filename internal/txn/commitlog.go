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
// not in its WAL ring — so concurrent in-flight transactions truncate
// independently, in any order, with one 8-byte invalidating write each.

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
	slots    int
	nextID   uint64
	used     []bool
	slotOf   map[uint64]int // txnID → slot, for truncation
}

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
	return &CommitLog{
		s:        s,
		slotSize: size,
		slots:    n,
		nextID:   1,
		used:     make([]bool, n),
		slotOf:   make(map[uint64]int),
	}, nil
}

// Slots returns how many commit records can be in flight at once.
func (l *CommitLog) Slots() int { return l.slots }

// Append durably replicates a commit record for a transaction holding
// token on the groups named by shards, and returns the assigned txnID.
// The record is on every member of the coordinator's group when Append
// returns — the transaction is committed from this instant, whatever
// happens to the coordinator afterwards.
func (l *CommitLog) Append(f *sim.Fiber, token uint64, shards []int) (uint64, error) {
	if max := (l.slotSize - clHeader - clTrailer) / 4; len(shards) > max {
		return 0, fmt.Errorf("%w: %d participants exceed the %d-participant slot", ErrBadArgument, len(shards), max)
	}
	slot := -1
	for i, u := range l.used {
		if !u {
			slot = i
			break
		}
	}
	if slot < 0 {
		return 0, ErrCommitLogFull
	}
	id := l.nextID
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
	if err := l.s.WriteData(f, slot*l.slotSize, buf); err != nil {
		return 0, err
	}
	l.nextID++
	l.used[slot] = true
	l.slotOf[id] = slot
	return id, nil
}

// Truncate durably removes txnID's commit record: every participant is
// done, so recovery no longer needs it. Truncating an unknown (already
// truncated) txnID is a no-op — retried commits re-truncate safely.
func (l *CommitLog) Truncate(f *sim.Fiber, txnID uint64) error {
	slot, ok := l.slotOf[txnID]
	if !ok {
		return nil
	}
	// One 8-byte durable write over the magic (and half the txnID)
	// invalidates the slot on every member.
	l.s.ptrBuf = [8]byte{}
	if err := l.s.WriteData(f, slot*l.slotSize, l.s.ptrBuf[:]); err != nil {
		return err
	}
	l.used[slot] = false
	delete(l.slotOf, txnID)
	return nil
}

// Records scans the log and returns every live commit record. It also
// refreshes the client-side slot map from the durable image, so a
// coordinator that restarted over an existing store (a fresh CommitLog
// over old records) can Truncate what it finds.
func (l *CommitLog) Records() ([]CommitRecord, error) {
	var out []CommitRecord
	for i := range l.used {
		l.used[i] = false
	}
	l.slotOf = make(map[uint64]int)
	for i := 0; i < l.slots; i++ {
		buf, err := l.s.ReadData(i*l.slotSize, l.slotSize)
		if err != nil {
			return nil, err
		}
		rec, ok := decodeCommitRecord(buf)
		if !ok {
			continue
		}
		l.used[i] = true
		l.slotOf[rec.TxnID] = i
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
