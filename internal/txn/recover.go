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

// walkLog walks the pending records on the client's current view
// (wal.Walk): visit gets each one in log order, its bytes valid until the
// next read of the mirror. It returns where the valid prefix ends and
// whether the walk stopped there at a torn or malformed record or pad
// before the tail.
func (s *Store) walkLog(visit func(pos int, rec wal.DecodedRecord, img []byte) bool) (validEnd int, torn bool, err error) {
	head, err := s.Head()
	if err != nil {
		return 0, false, err
	}
	tail, err := s.Tail()
	if err != nil {
		return 0, false, err
	}
	validEnd, err = wal.Walk(s.cfg.LogSize, head, tail, s.viewLog, nil, visit)
	if errors.Is(err, wal.ErrCorrupt) {
		return validEnd, true, nil
	}
	return validEnd, false, err
}

// PendingSeqs returns the sequence numbers of valid, unexecuted records.
func (s *Store) PendingSeqs() ([]uint64, error) {
	seqs := []uint64{}
	if _, _, err := s.walkLog(func(_ int, rec wal.DecodedRecord, _ []byte) bool {
		seqs = append(seqs, rec.Seq)
		return true
	}); err != nil {
		return nil, err
	}
	return seqs, nil
}

// RepairLog validates the log after a crash. A torn append (record bytes
// not fully durable, or tail pointer ahead of valid data) is rolled back
// by rewriting the tail pointer to the end of the valid prefix — durably,
// on the whole group. It returns the number of valid pending records and
// whether a repair was needed. The caller typically runs ExecuteAll next.
func (s *Store) RepairLog(f *sim.Fiber) (valid int, repaired bool, err error) {
	next := s.nextSeq
	validEnd, torn, err := s.walkLog(func(_ int, rec wal.DecodedRecord, _ []byte) bool {
		valid++
		next = max(next, rec.Seq+1)
		return true
	})
	if err != nil {
		return 0, false, err
	}
	if torn {
		if err := s.writePtr(f, ctrlTailPtr, validEnd); err != nil {
			return valid, false, fmt.Errorf("%w: %v", ErrRecovered, err)
		}
		repaired = true
	}
	// Restore the client's next sequence past anything still in the log.
	s.nextSeq = next
	return valid, repaired, nil
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
	var ferr error
	_, _, err := s.walkLog(func(_ int, rec wal.DecodedRecord, img []byte) bool {
		entries := make([]wal.Entry, len(rec.Entries))
		for i, e := range rec.Entries {
			entries[i] = wal.Entry{Off: e.Off, Data: append([]byte(nil), rec.Data(img, e)...)}
		}
		ferr = fn(rec.Seq, entries)
		return ferr == nil
	})
	if ferr != nil {
		return ferr
	}
	return err
}
