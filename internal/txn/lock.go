package txn

import (
	"errors"
	"fmt"

	"hyperloop/internal/sim"
)

// WrLock acquires the exclusive group write lock via gCAS. If only some
// replicas grant the lock (another writer raced us), the acquisition is
// undone with a second gCAS whose execute map names exactly the replicas
// that succeeded (§4.2's selective-execution undo), then retried after a
// backoff.
func (s *Store) WrLock(f *sim.Fiber) error {
	for attempt := 0; attempt < s.cfg.LockRetries; attempt++ {
		res, err := s.r.CAS(f, ctrlWrLock, 0, s.cfg.LockToken, s.allExec)
		if err != nil {
			return err
		}
		nSucc := 0
		for _, orig := range res {
			if orig == 0 {
				nSucc++
			}
		}
		if nSucc == len(res) {
			return nil
		}
		succ := make([]bool, len(res))
		for i, orig := range res {
			succ[i] = orig == 0
		}
		// Partial (or failed) acquisition: undo on the replicas that
		// granted it, then back off and retry.
		if _, err := s.r.CAS(f, ctrlWrLock, s.cfg.LockToken, 0, succ); err != nil {
			return fmt.Errorf("lock undo: %w", err)
		}
		f.Sleep(s.cfg.LockBackoff * sim.Duration(attempt+1))
	}
	return ErrLockContended
}

// WrUnlock releases the group write lock on every replica.
func (s *Store) WrUnlock(f *sim.Fiber) error {
	res, err := s.r.CAS(f, ctrlWrLock, s.cfg.LockToken, 0, s.allExec)
	if err != nil {
		return err
	}
	for i, orig := range res {
		if orig != s.cfg.LockToken {
			return fmt.Errorf("txn: unlock found token %d on replica %d, want %d",
				orig, i, s.cfg.LockToken)
		}
	}
	return nil
}

// WithWrLock runs fn under the group write lock.
func (s *Store) WithWrLock(f *sim.Fiber, fn func() error) error {
	if err := s.WrLock(f); err != nil {
		return err
	}
	ferr := fn()
	if uerr := s.WrUnlock(f); uerr != nil && ferr == nil {
		ferr = uerr
	}
	return ferr
}

// RdLock takes a shared read lock on one replica (0-based) by CASing the
// reader-count word there — only the replica being read participates
// (§5, "read locks are not group based").
func (s *Store) RdLock(f *sim.Fiber, replica int) error {
	return s.adjustReaders(f, replica, +1)
}

// RdUnlock drops the shared read lock on one replica.
func (s *Store) RdUnlock(f *sim.Fiber, replica int) error {
	return s.adjustReaders(f, replica, -1)
}

func (s *Store) adjustReaders(f *sim.Fiber, replica int, delta int) error {
	g := s.r.GroupSize()
	if replica < 0 || replica >= g {
		return fmt.Errorf("%w: replica %d of %d", ErrBadArgument, replica, g)
	}
	exec := make([]bool, g)
	exec[replica] = true
	for attempt := 0; attempt < s.cfg.LockRetries; attempt++ {
		b, err := s.r.ReadLocal(ctrlRdLock, 8)
		if err != nil {
			return err
		}
		cur := leUint64(b)
		want := uint64(int64(cur) + int64(delta))
		if int64(want) < 0 {
			return fmt.Errorf("%w: reader count underflow", ErrBadArgument)
		}
		res, err := s.r.CAS(f, ctrlRdLock, cur, want, exec)
		if err != nil {
			return err
		}
		if res[replica] == cur {
			return nil
		}
		f.Sleep(s.cfg.LockBackoff)
	}
	return ErrLockContended
}

// Readers returns the client-coherent reader count (diagnostics).
func (s *Store) Readers() (uint64, error) {
	b, err := s.r.ReadLocal(ctrlRdLock, 8)
	if err != nil {
		return 0, err
	}
	return leUint64(b), nil
}

// Locked reports whether the write lock word currently holds any token.
func (s *Store) Locked() (bool, error) {
	b, err := s.r.ReadLocal(ctrlWrLock, 8)
	if err != nil {
		return false, err
	}
	return leUint64(b) != 0, nil
}

// ErrRecovered is wrapped by RepairLog when the tail had to be rolled back
// over a torn record.
var ErrRecovered = errors.New("txn: log tail repaired")
