package txn

import (
	"errors"
	"fmt"

	"hyperloop/internal/sim"
	"hyperloop/internal/wal"
)

// ViewData returns [off, off+n) of the data region as a read-only view of
// the client's mirror (Replicator.ViewLocal): it is valid until the caller
// next yields to the kernel or reads this store again. A caller that keeps
// the bytes clones them.
func (s *Store) ViewData(off, n int) ([]byte, error) {
	if !s.inData(off, n) {
		return nil, fmt.Errorf("%w: data read out of range", ErrBadArgument)
	}
	return s.r.ViewLocal(s.dataOff+off, n)
}

// logRecord pairs a decoded record with its position in the log ring.
type logRecord struct {
	pos int
	rec wal.DecodedRecord
}

// scanLog walks valid records from head to tail on the client's current
// view, skipping pads and wraps. It returns the valid prefix and, if the
// walk hit a torn/corrupt record before reaching tail, the position where
// validity ended.
func (s *Store) scanLog() (recs []logRecord, validEnd int, torn bool, err error) {
	head, err := s.Head()
	if err != nil {
		return nil, 0, false, err
	}
	tail, err := s.Tail()
	if err != nil {
		return nil, 0, false, err
	}
	p := head
	for p != tail {
		if s.wrapAt(p) {
			p = 0
			continue
		}
		strip, err := s.r.ViewLocal(s.logOff+p, min(wal.PadHeaderSize, s.cfg.LogSize-p))
		if err != nil {
			return nil, 0, false, err
		}
		if padLen, ok := wal.IsPad(strip); ok {
			p += padLen
			if p >= s.cfg.LogSize || s.wrapAt(p) {
				p = 0
			}
			continue
		}
		img, err := s.recordImage(p)
		if err != nil {
			return nil, 0, false, err
		}
		rec, derr := wal.Decode(img, nil)
		if derr != nil {
			return recs, p, true, nil
		}
		recs = append(recs, logRecord{pos: p, rec: rec})
		p += rec.Size
		if s.wrapAt(p) {
			p = 0
		}
	}
	return recs, p, false, nil
}

// PendingSeqs returns the sequence numbers of valid, unexecuted records.
func (s *Store) PendingSeqs() ([]uint64, error) {
	recs, _, _, err := s.scanLog()
	if err != nil {
		return nil, err
	}
	seqs := make([]uint64, len(recs))
	for i, lr := range recs {
		seqs[i] = lr.rec.Seq
	}
	return seqs, nil
}

// RepairLog validates the log after a crash. A torn append (record bytes
// not fully durable, or tail pointer ahead of valid data) is rolled back
// by rewriting the tail pointer to the end of the valid prefix — durably,
// on the whole group. It returns the number of valid pending records and
// whether a repair was needed. The caller typically runs ExecuteAll next.
func (s *Store) RepairLog(f *sim.Fiber) (valid int, repaired bool, err error) {
	recs, validEnd, torn, err := s.scanLog()
	if err != nil {
		return 0, false, err
	}
	if torn {
		if err := s.writePtr(f, ctrlTailPtr, validEnd); err != nil {
			return len(recs), false, fmt.Errorf("%w: %v", ErrRecovered, err)
		}
		repaired = true
	}
	// Restore the client's next sequence past anything still in the log.
	for _, lr := range recs {
		if lr.rec.Seq >= s.nextSeq {
			s.nextSeq = lr.rec.Seq + 1
		}
	}
	return len(recs), repaired, nil
}

// Recover repairs the log and re-executes every pending record — the full
// §5 recovery flow once a stable chain is re-established. It returns how
// many records were applied.
func (s *Store) Recover(f *sim.Fiber) (int, error) {
	if _, _, err := s.RepairLog(f); err != nil && !errors.Is(err, ErrRecovered) {
		return 0, err
	}
	return s.ExecuteAll(f)
}

// VisitPending calls fn for every valid pending record in log order,
// materializing entry data (copies). Used by stores that replay the log
// into in-memory structures during recovery.
func (s *Store) VisitPending(fn func(seq uint64, entries []wal.Entry) error) error {
	recs, _, _, err := s.scanLog()
	if err != nil {
		return err
	}
	for _, lr := range recs {
		img, err := s.r.ViewLocal(s.logOff+lr.pos, lr.rec.Size)
		if err != nil {
			return err
		}
		entries := make([]wal.Entry, len(lr.rec.Entries))
		for i, e := range lr.rec.Entries {
			entries[i] = wal.Entry{
				Off:  e.Off,
				Data: append([]byte(nil), lr.rec.Data(img, e)...),
			}
		}
		if err := fn(lr.rec.Seq, entries); err != nil {
			return err
		}
	}
	return nil
}
