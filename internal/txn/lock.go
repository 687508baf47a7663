package txn

import (
	"encoding/binary"
	"errors"
	"fmt"

	"hyperloop/internal/sim"
)

// The group write lock is one word in the control block, 0 when free and
// the holder's token otherwise. Acquisition (tryLock) and release
// (finishUnlock) are each implemented once: WrLock and 2PC's lock round
// share the first; WrUnlock, ExecuteAllAndUnlock and recovery — which
// passes a crashed coordinator's token — the second.

// tryLock is one attempt at the exclusive group write lock: a gCAS of the
// lock word from 0 to the store's token on every member. If only some
// members granted it (another writer raced us), the acquisition is undone
// with a second gCAS whose execute map names exactly the members that did
// (§4.2's selective-execution undo). It reports whether the lock is now
// held and never waits for it.
func (s *Store) tryLock(f *sim.Fiber) (bool, error) {
	res, err := s.r.CAS(f, ctrlWrLock, 0, s.cfg.LockToken, s.allExec)
	if err != nil {
		return false, err
	}
	granted := 0
	for _, orig := range res {
		if orig == 0 {
			granted++
		}
	}
	if granted == len(res) {
		return true, nil
	}
	succ := make([]bool, len(res))
	for i, orig := range res {
		succ[i] = orig == 0
	}
	if _, err := s.r.CAS(f, ctrlWrLock, s.cfg.LockToken, 0, succ); err != nil {
		return false, fmt.Errorf("lock undo: %w", err)
	}
	return false, nil
}

// lockBackoff is the sleep between lock attempts: a reader's between CAS
// retries, and the unit of a writer's backoff.
const lockBackoff = 10 * sim.Microsecond

// lockRetries bounds the attempts of one lock acquisition — a writer's
// WrLock, a reader's count update, a 2PC coordinator's lock rounds —
// before it gives up with ErrLockContended. A writer's linear backoff
// keeps it trying for about 50 ms of virtual time.
const lockRetries = 100

// backoff is how long a writer stays away after its attempt-th (0-based)
// failed acquisition: linear in the attempt, plus a stagger of up to one
// lockBackoff derived from the lock token, so writers that collided at one
// instant do not collide at the next. No random draw: the schedule is a
// function of the configuration alone.
func (s *Store) backoff(attempt int) sim.Duration {
	stagger := (s.cfg.LockToken*0x9E3779B97F4A7C15>>61 + uint64(attempt)) % 8
	return lockBackoff*sim.Duration(attempt+1) + lockBackoff*sim.Duration(stagger)/8
}

// WrLock acquires the exclusive group write lock: tryLock, retried after a
// backoff up to lockRetries times.
func (s *Store) WrLock(f *sim.Fiber) error {
	for attempt := 0; attempt < lockRetries; attempt++ {
		if ok, err := s.tryLock(f); ok || err != nil {
			return err
		}
		f.Sleep(s.backoff(attempt))
	}
	return ErrLockContended
}

// WrUnlock releases the group write lock on every replica, as a step of
// one op.
func (s *Store) WrUnlock(f *sim.Fiber) error {
	if err := s.holds(); err != nil {
		return err
	}
	return s.finishUnlock(f, s.cfg.LockToken)
}

// lockWord returns the write lock word of the client's mirror.
func (s *Store) lockWord() (uint64, error) {
	v, err := s.readPtr(ctrlWrLock)
	return uint64(v), err
}

// holds checks, on the client's mirror, that the lock word is the store's
// token, so an unlock without the lock is an error before anything is sent.
func (s *Store) holds() error {
	cur, err := s.lockWord()
	if err != nil {
		return err
	}
	if cur != s.cfg.LockToken {
		return fmt.Errorf("txn: unlock of token %d finds the lock word holding %d", s.cfg.LockToken, cur)
	}
	return nil
}

// finishUnlock ends the running step with the gCAS that swaps the lock word
// from token back to 0 on every member. A member that already reads 0 was
// released by an earlier attempt whose acknowledgement never arrived; no
// one else can have been granted the lock since, because a grant needs every
// member and some member held ours until now. Any other value is an error.
// When the step fails, the client's lock word is put back to token: the
// client's view is that it still holds the lock, which is what Locked,
// a retried release and recovery consult.
func (s *Store) finishUnlock(f *sim.Fiber, token uint64) error {
	err := s.end(f, func() error {
		res, err := s.r.CAS(f, ctrlWrLock, token, 0, s.allExec)
		for i, orig := range res {
			if orig != token && orig != 0 {
				return fmt.Errorf("txn: unlock found token %d on replica %d, want %d", orig, i, token)
			}
		}
		return err
	})
	if err != nil {
		s.restoreWord(ctrlWrLock, token)
	}
	return err
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
	for attempt := 0; attempt < lockRetries; attempt++ {
		b, err := s.r.ViewLocal(ctrlRdLock, 8)
		if err != nil {
			return err
		}
		cur := binary.LittleEndian.Uint64(b)
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
		f.Sleep(lockBackoff)
	}
	return ErrLockContended
}

// Readers returns the client-coherent reader count (diagnostics).
func (s *Store) Readers() (uint64, error) {
	b, err := s.r.ViewLocal(ctrlRdLock, 8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// Locked reports whether the write lock word currently holds any token.
func (s *Store) Locked() (bool, error) {
	w, err := s.lockWord()
	return w != 0, err
}

// ErrRecovered is wrapped by RepairLog when the tail had to be rolled back
// over a torn record.
var ErrRecovered = errors.New("txn: log tail repaired")
