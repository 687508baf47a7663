// Package txn is the replicated-transaction layer of §5: a write-ahead log
// and a database region inside a replication group's mirrored memory,
// driven entirely through the group primitives. Appending a transaction is
// a gWRITE(+gFLUSH) of the record and the tail pointer, posted together;
// executing it is a gMEMCPY(+gFLUSH) per entry and the head-pointer
// advance, posted together; isolation is a group lock built from gCAS with
// undo on partial acquisition, and its release can ride behind the execute
// it guards as that step's last op (ExecuteAllAndUnlock).
//
// "Posted together" is the layer's one issue rule (see Store.stage): the group
// ops of one Store method go out back to back and the method waits once,
// so it costs one traversal of the group plus the later ops' occupancy
// instead of one traversal per op. It is sound because every member of
// every protocol applies and flushes group ops in issue order — a member's
// durable image is always a prefix of what was posted (DESIGN.md, "One
// batch per store step").
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

	"hyperloop/internal/protocol"
	"hyperloop/internal/sim"
	"hyperloop/internal/wal"
)

// Replicator is the group-primitive surface the transaction layer needs:
// client mirror access, the blocking primitives, and the posting forms of
// gWRITE and gMEMCPY a step pipelines with. It is a subset of
// protocol.Protocol, which protocol.Group — and so every registered
// replication protocol — provides. A window-full post must report an error
// matching protocol.ErrTooManyInFlight. A ViewLocal view may last only until
// the next one (protocol.Protocol), so the Store reads each before the next.
type Replicator interface {
	GroupSize() int
	WriteLocal(off int, data []byte) error
	ViewLocal(off, n int) ([]byte, error)
	WriteAsync(off, size int, durable bool) (*sim.Signal, error)
	Write(f *sim.Fiber, off, size int, durable bool) error
	MemcpyAsync(src, dst, size int, durable bool) (*sim.Signal, error)
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

	allExec []bool             // the gCAS execute map naming every member
	ptrBuf  [8]byte            // an encoded control pointer (also CommitLog's 8 zero bytes)
	encBuf  []byte             // Append's encoded record and wrap pad; CommitLog's slot image
	entries []wal.DecodedEntry // the entries of the record executeHead decoded last

	// The running step (see stage): the signals of the ops posted so far in
	// issue order, how many of them have been waited for, and the step's
	// first error.
	sigs    []*sim.Signal
	reaped  int
	stepErr error
}

// New carves the control block, log and data regions out of the mirror.
// The mirror must be at least ctrl+LogSize+DataSize bytes (the caller
// configured the group's MirrorSize accordingly).
func New(r Replicator, cfg Config) (*Store, error) {
	if cfg.LogSize <= 0 || cfg.DataSize <= 0 {
		return nil, fmt.Errorf("%w: log and data sizes must be positive", ErrBadArgument)
	}
	if cfg.LockToken == 0 {
		cfg.LockToken = 1
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
	b, err := s.r.ViewLocal(off, 8)
	if err != nil {
		return 0, err
	}
	return int(binary.LittleEndian.Uint64(b)), nil
}

// writePtr durably replicates a control pointer: a step of one op.
func (s *Store) writePtr(f *sim.Fiber, off int, v int) error {
	s.stagePtr(off, v)
	return s.finish(f, off, 8)
}

// A step is the group ops of one Store method, issued as one pipelined
// batch on the caller's fiber: every op but the last is posted through the
// *Async form (postWrite, postMemcpy), the last — a gWRITE (finish) or the
// gCAS that releases the group lock (finishUnlock) — goes through the
// blocking form and the step then waits for the earlier ones. The ops
// reach the wire in program order with the arguments a one-at-a-time walk
// would use; only their post times differ, so a step costs its first op's
// traversal of the group plus the later ops' added occupancy. Bytes are
// staged in the client's mirror immediately before the op that replicates
// them (stage). The first failure — staging, posting, or an op's signal —
// fails the step: nothing further is staged or posted, every op already
// posted is still waited for, and the step returns that error with the
// client's view of the words it moves (log pointers, lock word) put back.
// Ops posted early are issued once; only a last gWRITE keeps the group's
// timeout-and-retry loop (no store in the repo runs over a group with
// MaxRetries > 0).

// stage copies data into the client's mirror at off, ahead of the op that
// replicates it.
func (s *Store) stage(off int, data []byte) {
	if s.stepErr == nil {
		s.stepErr = s.r.WriteLocal(off, data)
	}
}

// stagePtr stages control pointer v at off.
func (s *Store) stagePtr(off, v int) {
	binary.LittleEndian.PutUint64(s.ptrBuf[:], uint64(v))
	s.stage(off, s.ptrBuf[:])
}

// restoreWord puts control word v — a log pointer or the lock word — back
// in the client's mirror after a failed step moved it; nothing is sent.
func (s *Store) restoreWord(off int, v uint64) {
	binary.LittleEndian.PutUint64(s.ptrBuf[:], v)
	_ = s.r.WriteLocal(off, s.ptrBuf[:]) // the step's error is the one reported
}

// postWrite adds a durable gWRITE of [off, off+size) to the running step
// without waiting for it.
func (s *Store) postWrite(f *sim.Fiber, off, size int) {
	for s.stepErr == nil {
		sig, err := s.r.WriteAsync(off, size, true)
		if s.posted(f, sig, err) {
			return
		}
	}
}

// postMemcpy adds a durable gMEMCPY of [src, src+size) to dst to the
// running step without waiting for it.
func (s *Store) postMemcpy(f *sim.Fiber, src, dst, size int) {
	for s.stepErr == nil {
		sig, err := s.r.MemcpyAsync(src, dst, size, true)
		if s.posted(f, sig, err) {
			return
		}
	}
}

// posted takes the result of one post and reports whether the op is on its
// way. A step never holds more than the group's window: when the post
// found it full, posted waits for the step's oldest outstanding op and
// reports false with the step still healthy, and the caller posts again.
// Any other error fails the step.
func (s *Store) posted(f *sim.Fiber, sig *sim.Signal, err error) bool {
	if err == nil {
		s.sigs = append(s.sigs, sig)
		return true
	}
	if !errors.Is(err, protocol.ErrTooManyInFlight) || !s.reap(f) {
		s.stepErr = err
	}
	return false
}

// reap waits for the step's oldest outstanding op and records its error;
// it reports false when none is outstanding.
func (s *Store) reap(f *sim.Fiber) bool {
	if s.reaped == len(s.sigs) {
		return false
	}
	if err := f.Await(s.sigs[s.reaped]); err != nil && s.stepErr == nil {
		s.stepErr = err
	}
	s.reaped++
	return true
}

// finish ends the step with a durable gWRITE of [off, off+size).
func (s *Store) finish(f *sim.Fiber, off, size int) error {
	return s.end(f, func() error { return s.r.Write(f, off, size, true) })
}

// end issues the step's last op through the blocking form, so a decorator
// of the blocking calls sees one call that spans the step, then waits for
// every op posted before it. The group is left with the in-flight count it
// had when the step began. end returns the step's first error in issue
// order and readies the Store for the next step.
func (s *Store) end(f *sim.Fiber, last func() error) error {
	var err error
	for s.stepErr == nil {
		err = last()
		if err == nil || !errors.Is(err, protocol.ErrTooManyInFlight) || !s.reap(f) {
			break
		}
	}
	if werr := s.wait(f); werr != nil {
		err = werr
	}
	return err
}

// wait ends the step without a last op of its own: it waits for every op
// posted and returns the step's first error, readying the Store for the
// next step.
func (s *Store) wait(f *sim.Fiber) error {
	for s.reap(f) {
	}
	err := s.stepErr
	s.sigs, s.reaped, s.stepErr = s.sigs[:0], 0, nil
	return err
}

// postBehind posts a durable gWRITE of [off, off+size), staged already,
// after the running step's ops, without adding it to the step: its signal
// is returned instead, or nil when the step has failed or the op could not
// be posted. A full window waits for the step's oldest op, as posted does.
func (s *Store) postBehind(f *sim.Fiber, off, size int) *sim.Signal {
	for s.stepErr == nil {
		sig, err := s.r.WriteAsync(off, size, true)
		if err == nil {
			return sig
		}
		if !errors.Is(err, protocol.ErrTooManyInFlight) || !s.reap(f) {
			break
		}
	}
	return nil
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

// inData reports whether [off, off+n) lies inside the data region; it
// cannot overflow, and rejects negative offsets and sizes.
func (s *Store) inData(off, n int) bool {
	return off >= 0 && n >= 0 && off <= s.cfg.DataSize-n
}

// Append encodes the transaction and durably replicates, as one step, the
// wrap pad when the record does not fit before the end of the ring, the
// record bytes (gWRITE + interleaved gFLUSH) and the tail pointer. The
// record's entry offsets are relative to the data region.
//
// Append is failure-atomic on the client's view: when it returns an error
// the local tail is what it was before the call, so the record is neither
// counted by LogUsed nor executed, and the next Append overwrites it. A
// member may still have applied the new tail (its stream ran ahead of the
// one that failed), so Append then asks the group, best effort and durably,
// to take the old tail back; a caller that must know the rewind reached
// every member — 2PC's rollback — writes it again and checks the error.
func (s *Store) Append(f *sim.Fiber, entries []wal.Entry) (uint64, error) {
	seq, _, err := s.appendThen(f, entries, nil, 0, 0)
	return seq, err
}

// Behind a step the caller may post one more durable gWRITE that the step
// does not wait for (postBehind): it goes out right after the step's last
// op, crosses the group while the step waits, and every member applies it
// after the step's ops and before the caller's next step's. The two forms
// below return its signal, which the caller awaits itself — once it has
// fired, if it wants never to wait — so the group can recycle it; the
// signal is nil when the op was not posted. They fail like Append, and
// then post nothing when the step failed before its last op was posted.
// A step counts only its own ops against the group's window, so a caller
// keeps few of these in flight.

// AppendData is Append with the data-region bytes [off, off+n) posted
// behind it: chunk(0, n) returns them, asked for once, right before their
// post, and only when the Append's own ops are out.
func (s *Store) AppendData(f *sim.Fiber, entries []wal.Entry, off, n int, chunk func(pos, n int) []byte) (uint64, *sim.Signal, error) {
	if !s.inData(off, n) {
		return 0, nil, fmt.Errorf("%w: data write out of range", ErrBadArgument)
	}
	stage := func() error { return s.r.WriteLocal(s.dataOff+off, chunk(0, n)) }
	return s.appendThen(f, entries, stage, s.dataOff+off, n)
}

// AppendTruncate is Append with the log head's move to head posted behind
// it — TruncateTo, not waited for. The client's head moves when the move
// is posted, so the log before head is free to the next Append, whose ops
// every member applies after the move; when the Append fails, or the move
// was not posted, the client's head is put back.
func (s *Store) AppendTruncate(f *sim.Fiber, entries []wal.Entry, head int) (uint64, *sim.Signal, error) {
	old, err := s.Head()
	if err != nil {
		return 0, nil, err
	}
	stage := func() error {
		binary.LittleEndian.PutUint64(s.ptrBuf[:], uint64(head))
		return s.r.WriteLocal(ctrlHeadPtr, s.ptrBuf[:])
	}
	seq, sig, err := s.appendThen(f, entries, stage, ctrlHeadPtr, 8)
	if sig == nil || err != nil {
		s.restoreWord(ctrlHeadPtr, uint64(old)) // the move is not known to be anywhere
	}
	return seq, sig, err
}

// appendThen is Append, with a durable gWRITE of [at, at+n) posted behind
// it when stage is not nil: stage puts that op's bytes in the client's
// mirror, once, after the step's own ops are out. The tail pointer is then
// posted too, and the step waits for it.
func (s *Store) appendThen(f *sim.Fiber, entries []wal.Entry, stage func() error, at, n int) (uint64, *sim.Signal, error) {
	for _, e := range entries {
		if !s.inData(e.Off, len(e.Data)) {
			return 0, nil, fmt.Errorf("%w: entry outside data region", ErrBadArgument)
		}
	}
	rec := wal.Record{Seq: s.nextSeq, Entries: entries}
	size := rec.EncodedSize()
	head, err := s.Head()
	if err != nil {
		return 0, nil, err
	}
	oldTail, err := s.Tail()
	if err != nil {
		return 0, nil, err
	}
	pos, padLen, newTail, err := wal.Place(s.cfg.LogSize, head, oldTail, size)
	switch {
	case errors.Is(err, wal.ErrFull):
		return 0, nil, ErrLogFull
	case err != nil:
		return 0, nil, fmt.Errorf("%w: record of %d bytes exceeds log", ErrBadArgument, size)
	}
	if padLen > 0 {
		pad := s.scratch(padLen)
		n := wal.EncodePad(pad)
		s.stage(s.logOff+oldTail, pad)
		s.postWrite(f, s.logOff+oldTail, n)
	}
	buf := s.scratch(size)
	if _, err := rec.Encode(buf); err != nil && s.stepErr == nil {
		s.stepErr = err
	}
	s.stage(s.logOff+pos, buf)
	s.postWrite(f, s.logOff+pos, size)
	s.stagePtr(ctrlTailPtr, newTail)
	var sig *sim.Signal
	if stage == nil {
		err = s.finish(f, ctrlTailPtr, 8)
	} else {
		s.postWrite(f, ctrlTailPtr, 8)
		if s.stepErr == nil && stage() == nil {
			sig = s.postBehind(f, at, n)
		}
		err = s.wait(f)
	}
	if err != nil {
		if t, terr := s.Tail(); terr != nil || t != oldTail {
			_ = s.writePtr(f, ctrlTailPtr, oldTail) // best effort, see above
		}
		return 0, sig, err
	}
	s.nextSeq++
	return rec.Seq, sig, nil
}

// scratch returns the Store's reusable encode buffer at length n, contents
// stale.
func (s *Store) scratch(n int) []byte {
	if cap(s.encBuf) < n {
		s.encBuf = make([]byte, n)
	}
	return s.encBuf[:n]
}

// viewLog is wal.Walk's fetch over the client's mirror of the log ring:
// each read is a view, so reading a record costs its own size, however
// large the log is.
func (s *Store) viewLog(pos, n int) ([]byte, error) { return s.r.ViewLocal(s.logOff+pos, n) }

// ExecuteAndAdvance processes the record at the log head: one gMEMCPY +
// gFLUSH per entry moves the data from the log region into the database
// region on every member without replica CPU involvement, then the head
// pointer advances (truncation). It returns the record's sequence.
func (s *Store) ExecuteAndAdvance(f *sim.Fiber) (uint64, error) {
	seq, _, err := s.executeHead(f, 0)
	return seq, err
}

// executeHead is ExecuteAndAdvance, and with a non-zero token it also gives
// the group write lock held under that token back when the record is the
// last one pending: the head pointer is then posted like the gMEMCPYs and
// the release gCAS is the step's blocking last op (finishUnlock). released
// reports that it was.
func (s *Store) executeHead(f *sim.Fiber, token uint64) (seq uint64, released bool, err error) {
	oldHead, err := s.Head()
	if err != nil {
		return 0, false, err
	}
	tail, err := s.Tail()
	if err != nil {
		return 0, false, err
	}
	at := 0
	var rec wal.DecodedRecord // Size 0: the walk met no record
	newHead, err := wal.Walk(s.cfg.LogSize, oldHead, tail, s.viewLog, s.entries, func(pos int, r wal.DecodedRecord, _ []byte) bool {
		at, rec = pos, r
		return false
	})
	switch {
	case err != nil:
		return 0, false, fmt.Errorf("execute: %w", err)
	case rec.Size == 0:
		return 0, false, ErrLogEmpty
	}
	s.entries = rec.Entries
	for _, e := range rec.Entries {
		if e.Len == 0 {
			continue
		}
		s.postMemcpy(f, s.logOff+at+e.DataPos, s.dataOff+e.Off, e.Len)
	}
	s.stagePtr(ctrlHeadPtr, newHead)
	if released = token != 0 && newHead == tail; released {
		s.postWrite(f, ctrlHeadPtr, 8)
		err = s.finishUnlock(f, token)
	} else {
		err = s.finish(f, ctrlHeadPtr, 8)
	}
	if err != nil {
		// The record is not known to be applied on every member: it stays
		// at the client's head, so a retry executes it again (gMEMCPY is
		// idempotent) and nothing is appended over it meanwhile.
		s.restoreWord(ctrlHeadPtr, uint64(oldHead))
		return 0, false, fmt.Errorf("execute seq %d: %w", rec.Seq, err)
	}
	return rec.Seq, released, nil
}

// ExecuteAll drains the log, returning how many records were applied.
func (s *Store) ExecuteAll(f *sim.Fiber) (int, error) { return s.drain(f, 0) }

// ExecuteAllAndUnlock is the tail of the §5.2 flow (wrLock … execute …
// wrUnlock) as one step: it drains the log like ExecuteAll and releases
// the group write lock behind the last record's execute, so the release
// costs the gCAS's occupancy instead of a round trip of its own. Every
// member consumes one FIFO stream, so on each of them lock word released ⇒
// head advanced ⇒ the record's gMEMCPYs applied and flushed. It returns how
// many records were applied. When it fails the client's head pointer and
// lock word read what they read before the failing step — the store is
// still locked as far as the client knows — so the call can be repeated.
func (s *Store) ExecuteAllAndUnlock(f *sim.Fiber) (int, error) {
	if err := s.holds(); err != nil {
		return 0, err
	}
	return s.drain(f, s.cfg.LockToken)
}

// drain executes every pending record and, with a non-zero token — which
// the caller has checked the lock is held under — releases the lock behind
// the last one, or as a step of its own when nothing is pending.
func (s *Store) drain(f *sim.Fiber, token uint64) (int, error) {
	for n := 0; ; n++ {
		_, released, err := s.executeHead(f, token)
		switch {
		case errors.Is(err, ErrLogEmpty):
			if token == 0 {
				return n, nil
			}
			return n, s.finishUnlock(f, token)
		case err != nil:
			return n, err
		case released:
			return n + 1, nil
		}
	}
}

// dataChunk is the largest gWRITE WriteFrom issues. A store-and-forward
// hop serialises 64 KiB in 9.4 µs at 56 Gb/s — about one small-op traversal
// of a chain, so per-op overhead stays below wire time — and the largest
// image the stores write (a ≈ 1 MiB checkpoint) is 17 chunks, inside the
// default window of 30.
const dataChunk = 64 << 10

// WriteData durably replicates raw bytes into the data region at off —
// used by stores that keep fixed slots outside the log. It is WriteFrom
// with data as the source.
func (s *Store) WriteData(f *sim.Fiber, off int, data []byte) error {
	return s.WriteFrom(f, off, len(data), func(pos, n int) []byte { return data[pos : pos+n] })
}

// WriteFrom durably replicates a size-byte image into the data region at
// off, taking the image from its source chunk by chunk: chunk(pos, n) must
// return the image's bytes [pos, pos+n), and is asked for them in order,
// each chunk at most dataChunk bytes. A chunk is staged in the client's
// mirror right before the gWRITE that replicates it, so the client never
// holds more than one unposted chunk, and the source may build each one in
// the same buffer. An image larger than dataChunk goes as one step of
// back-to-back chunks, so the hops of a chain forward one chunk while
// receiving the next instead of each storing and forwarding the whole
// image. A full window makes the step wait for its oldest chunk between
// two chunks: the caller yields there, so the state its source reads must
// not change under it.
func (s *Store) WriteFrom(f *sim.Fiber, off, size int, chunk func(pos, n int) []byte) error {
	if !s.inData(off, size) {
		return fmt.Errorf("%w: data write out of range", ErrBadArgument)
	}
	p := s.dataOff + off
	pos := 0
	for ; size-pos > dataChunk && s.stepErr == nil; pos += dataChunk {
		s.stage(p+pos, chunk(pos, dataChunk))
		s.postWrite(f, p+pos, dataChunk)
	}
	if s.stepErr == nil {
		s.stage(p+pos, chunk(pos, size-pos))
	}
	return s.finish(f, p+pos, size-pos)
}

// TruncateTo advances the log head to head, a record boundary the caller
// read from Tail earlier, without executing the records before it — the
// truncation step after a checkpoint of the state at that tail.
func (s *Store) TruncateTo(f *sim.Fiber, head int) error {
	return s.writePtr(f, ctrlHeadPtr, head)
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
