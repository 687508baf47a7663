// Package txn is the replicated-transaction layer of §5: a write-ahead log
// and a database region inside a replication group's mirrored memory,
// driven entirely through the group primitives. Appending a transaction is
// a gWRITE(+gFLUSH) of the record and the tail pointer; executing it is a
// gMEMCPY(+gFLUSH) per entry plus a head-pointer advance; isolation is a
// group lock built from gCAS with undo on partial acquisition.
//
// The layer works identically over the HyperLoop backend (NIC-offloaded,
// package hyperloop) and the Naive-RDMA baseline (CPU-driven, package
// naive) — mirroring how the paper drops the same APIs into RocksDB and
// MongoDB with either datapath underneath.
package txn

import (
	"encoding/binary"
	"errors"
	"fmt"

	"hyperloop/internal/sim"
	"hyperloop/internal/wal"
)

// Replicator is the group-primitive surface the transaction layer needs:
// the blocking half of protocol.Protocol, which protocol.Group — and so
// every registered replication protocol — provides.
type Replicator interface {
	GroupSize() int
	WriteLocal(off int, data []byte) error
	ReadLocal(off, n int) ([]byte, error)
	Write(f *sim.Fiber, off, size int, durable bool) error
	Memcpy(f *sim.Fiber, src, dst, size int, durable bool) error
	CAS(f *sim.Fiber, off int, old, new uint64, exec []bool) ([]uint64, error)
	Flush(f *sim.Fiber, off, size int) error
}

// Control-block layout at the top of the mirror.
const (
	ctrlWrLock  = 0  // writer lock word
	ctrlHeadPtr = 8  // log head (byte offset within the log region)
	ctrlTailPtr = 16 // log tail
	ctrlRdLock  = 24 // per-replica reader count word (CASed selectively)
	ctrlSize    = 64
)

// Errors returned by the transaction layer.
var (
	ErrLogFull       = errors.New("txn: log full — execute or truncate first")
	ErrLogEmpty      = errors.New("txn: log empty")
	ErrLockContended = errors.New("txn: lock contended")
	ErrBadArgument   = errors.New("txn: bad argument")
)

// Config parameterizes a Store.
type Config struct {
	// LogSize is the circular write-ahead-log region size.
	LogSize int
	// DataSize is the database region size.
	DataSize int
	// LockToken identifies this writer in the group lock word.
	LockToken uint64
	// LockRetries bounds lock acquisition attempts.
	LockRetries int
	// LockBackoff is the sleep between lock attempts.
	LockBackoff sim.Duration
}

// Store manages a replicated write-ahead log plus database region. One
// fiber drives a Store at a time, so its scratch buffers are reused from
// call to call; Replicator.WriteLocal copies what it is handed.
type Store struct {
	r   Replicator
	cfg Config

	logOff  int
	dataOff int
	nextSeq uint64

	allExec []bool  // the gCAS execute map naming every member
	ptrBuf  [8]byte // writePtr's encoded pointer
	encBuf  []byte  // Append's encoded record (and wrap pad)
}

// New carves the control block, log and data regions out of the mirror.
// The mirror must be at least ctrl+LogSize+DataSize bytes (the caller
// configured the group's MirrorSize accordingly).
func New(r Replicator, cfg Config) (*Store, error) {
	if cfg.LogSize <= 2*wal.PadHeaderSize || cfg.DataSize <= 0 {
		return nil, fmt.Errorf("%w: log and data sizes must be positive", ErrBadArgument)
	}
	if cfg.LockToken == 0 {
		cfg.LockToken = 1
	}
	if cfg.LockRetries <= 0 {
		cfg.LockRetries = 100
	}
	if cfg.LockBackoff <= 0 {
		cfg.LockBackoff = 10 * sim.Microsecond
	}
	allExec := make([]bool, r.GroupSize())
	for i := range allExec {
		allExec[i] = true
	}
	return &Store{
		r:       r,
		cfg:     cfg,
		logOff:  ctrlSize,
		dataOff: ctrlSize + cfg.LogSize,
		nextSeq: 1,
		allExec: allExec,
	}, nil
}

// DataOff returns the mirror offset of the database region.
func (s *Store) DataOff() int { return s.dataOff }

// DataSize returns the database region size.
func (s *Store) DataSize() int { return s.cfg.DataSize }

// MirrorSize returns the total mirror footprint of this store.
func (s *Store) MirrorSize() int { return ctrlSize + s.cfg.LogSize + s.cfg.DataSize }

// MirrorSizeFor returns the mirror size a group must provide for the given
// log and data region sizes.
func MirrorSizeFor(logSize, dataSize int) int { return ctrlSize + logSize + dataSize }

func (s *Store) readPtr(off int) (int, error) {
	b, err := s.r.ReadLocal(off, 8)
	if err != nil {
		return 0, err
	}
	return int(leUint64(b)), nil
}

func leUint64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// writePtr durably replicates a control pointer.
func (s *Store) writePtr(f *sim.Fiber, off int, v int) error {
	binary.LittleEndian.PutUint64(s.ptrBuf[:], uint64(v))
	if err := s.r.WriteLocal(off, s.ptrBuf[:]); err != nil {
		return err
	}
	return s.r.Write(f, off, 8, true)
}

// Head returns the log head offset.
func (s *Store) Head() (int, error) { return s.readPtr(ctrlHeadPtr) }

// Tail returns the log tail offset.
func (s *Store) Tail() (int, error) { return s.readPtr(ctrlTailPtr) }

// LogUsed returns the bytes currently occupied in the log ring.
func (s *Store) LogUsed() (int, error) {
	head, err := s.Head()
	if err != nil {
		return 0, err
	}
	tail, err := s.Tail()
	if err != nil {
		return 0, err
	}
	return (tail - head + s.cfg.LogSize) % s.cfg.LogSize, nil
}

// wrapAt reports whether position p is inside the implicit-wrap strip at
// the end of the ring (too small to hold even a pad marker).
func (s *Store) wrapAt(p int) bool { return s.cfg.LogSize-p < wal.PadHeaderSize }

// Append encodes the transaction, durably replicates the record bytes
// (gWRITE + interleaved gFLUSH) and then the tail pointer. The record's
// entry offsets are relative to the data region.
func (s *Store) Append(f *sim.Fiber, entries []wal.Entry) (uint64, error) {
	for _, e := range entries {
		if e.Off < 0 || e.Off+len(e.Data) > s.cfg.DataSize {
			return 0, fmt.Errorf("%w: entry outside data region", ErrBadArgument)
		}
	}
	rec := wal.Record{Seq: s.nextSeq, Entries: entries}
	size := rec.EncodedSize()
	if size >= s.cfg.LogSize-wal.PadHeaderSize {
		return 0, fmt.Errorf("%w: record of %d bytes exceeds log", ErrBadArgument, size)
	}
	head, err := s.Head()
	if err != nil {
		return 0, err
	}
	tail, err := s.Tail()
	if err != nil {
		return 0, err
	}
	free := s.cfg.LogSize - ((tail - head + s.cfg.LogSize) % s.cfg.LogSize) - 1
	needsWrap := tail+size > s.cfg.LogSize
	need := size
	if needsWrap {
		need += s.cfg.LogSize - tail // the pad / wrap strip
	}
	if need > free {
		return 0, ErrLogFull
	}
	if needsWrap {
		padLen := s.cfg.LogSize - tail
		if padLen >= wal.PadHeaderSize {
			pad := s.scratch(padLen)
			clear(pad)
			if err := wal.EncodePad(pad, padLen); err != nil {
				return 0, err
			}
			if err := s.r.WriteLocal(s.logOff+tail, pad); err != nil {
				return 0, err
			}
			if err := s.r.Write(f, s.logOff+tail, wal.PadHeaderSize, true); err != nil {
				return 0, err
			}
		}
		tail = 0
	}
	buf := s.scratch(size)
	if _, err := rec.Encode(buf); err != nil {
		return 0, err
	}
	if err := s.r.WriteLocal(s.logOff+tail, buf); err != nil {
		return 0, err
	}
	if err := s.r.Write(f, s.logOff+tail, size, true); err != nil {
		return 0, err
	}
	newTail := tail + size
	if s.wrapAt(newTail) {
		newTail = 0
	}
	if err := s.writePtr(f, ctrlTailPtr, newTail); err != nil {
		return 0, err
	}
	s.nextSeq++
	return rec.Seq, nil
}

// scratch returns Append's reusable buffer at length n, contents stale.
func (s *Store) scratch(n int) []byte {
	if cap(s.encBuf) < n {
		s.encBuf = make([]byte, n)
	}
	return s.encBuf[:n]
}

// recordImage returns the log bytes wal.Decode needs for the record at ring
// position p: the record alone when its framing says where it ends, the
// rest of the ring otherwise. Reading a record therefore costs its own
// size, however large the log is.
func (s *Store) recordImage(p int) ([]byte, error) {
	n, err := wal.Extent(s.cfg.LogSize-p, func(pos, n int) ([]byte, error) {
		return s.r.ReadLocal(s.logOff+p+pos, n)
	})
	if err != nil {
		return nil, err
	}
	return s.r.ReadLocal(s.logOff+p, n)
}

// ExecuteAndAdvance processes the record at the log head: one gMEMCPY +
// gFLUSH per entry moves the data from the log region into the database
// region on every member without replica CPU involvement, then the head
// pointer advances (truncation). It returns the record's sequence.
func (s *Store) ExecuteAndAdvance(f *sim.Fiber) (uint64, error) {
	head, err := s.Head()
	if err != nil {
		return 0, err
	}
	tail, err := s.Tail()
	if err != nil {
		return 0, err
	}
	for {
		if head == tail {
			return 0, ErrLogEmpty
		}
		if s.wrapAt(head) {
			head = 0
			continue
		}
		strip, err := s.r.ReadLocal(s.logOff+head, minInt(wal.PadHeaderSize, s.cfg.LogSize-head))
		if err != nil {
			return 0, err
		}
		if padLen, ok := wal.IsPad(strip); ok {
			head += padLen
			if s.wrapAt(head) || head >= s.cfg.LogSize {
				head = 0
			}
			continue
		}
		break
	}
	img, err := s.recordImage(head)
	if err != nil {
		return 0, err
	}
	rec, err := wal.Decode(img)
	if err != nil {
		return 0, fmt.Errorf("execute: %w", err)
	}
	for _, e := range rec.Entries {
		if e.Len == 0 {
			continue
		}
		src := s.logOff + head + e.DataPos
		dst := s.dataOff + e.Off
		if err := s.r.Memcpy(f, src, dst, e.Len, true); err != nil {
			return 0, fmt.Errorf("execute seq %d: %w", rec.Seq, err)
		}
	}
	newHead := head + rec.Size
	if s.wrapAt(newHead) {
		newHead = 0
	}
	if err := s.writePtr(f, ctrlHeadPtr, newHead); err != nil {
		return 0, err
	}
	return rec.Seq, nil
}

// ExecuteAll drains the log, returning how many records were applied.
func (s *Store) ExecuteAll(f *sim.Fiber) (int, error) {
	n := 0
	for {
		if _, err := s.ExecuteAndAdvance(f); err != nil {
			if errors.Is(err, ErrLogEmpty) {
				return n, nil
			}
			return n, err
		}
		n++
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// WriteData durably replicates raw bytes into the data region at off —
// used by checkpointing stores that serialize state outside the log.
func (s *Store) WriteData(f *sim.Fiber, off int, data []byte) error {
	if off < 0 || off+len(data) > s.cfg.DataSize {
		return fmt.Errorf("%w: data write out of range", ErrBadArgument)
	}
	if err := s.r.WriteLocal(s.dataOff+off, data); err != nil {
		return err
	}
	return s.r.Write(f, s.dataOff+off, len(data), true)
}

// TruncateAll advances the log head to the tail without executing records
// — the truncation step after a checkpoint has captured their effects.
func (s *Store) TruncateAll(f *sim.Fiber) error {
	tail, err := s.Tail()
	if err != nil {
		return err
	}
	return s.writePtr(f, ctrlHeadPtr, tail)
}

// Exported layout constants so external readers (replica-side view
// builders, recovery tools) can interpret a raw mirror image.
const (
	// CtrlSize is the control block size at the top of the mirror.
	CtrlSize = ctrlSize
	// HeadPtrOff / TailPtrOff locate the log pointers in the mirror.
	HeadPtrOff = ctrlHeadPtr
	TailPtrOff = ctrlTailPtr
)
