package txn

import (
	"errors"
	"fmt"
	"slices"

	"hyperloop/internal/sim"
	"hyperloop/internal/wal"
)

// Two-phase commit across independently replicated stores. Each Store sits
// on its own replication group (its own chain, NICs and fault domain — see
// internal/shard), so a transaction spanning several of them cannot ride a
// single group ACK. Instead the coordinator runs classic presumed-abort
// 2PC built from the primitives §5 already provides:
//
//	prepare  = on every store at once: one attempt at the group write lock
//	           (gCAS); then, on every store at once, append the write-set
//	           record to the store's replicated WAL (gWRITE + gFLUSH).
//	           A prepared record is durable on every member but not yet
//	           applied to the database region.
//	commit   = on every store at once: ExecuteAllAndUnlock (gMEMCPY +
//	           gFLUSH per entry, head advance, and the lock release riding
//	           behind them as the same step's last op).
//	abort    = per store: roll the durable tail pointer back over the
//	           prepared (or half-appended) record and release the lock.
//
// The participants are independent groups, so the coordinator runs every
// phase with one fiber per participant (fanOut) and a transaction costs its
// dependent group round trips and nothing else —
//
//	lock + append + commit record + (execute‖unlock)
//
// four, whatever the span: a lock must be granted before the append is
// posted, every append acknowledged before the commit record, the record
// durable before any execute.
//
// The commit point is a durable record on the coordinator's own
// replicated store (see CommitLog): every transaction appends
// (txnID, token, participant IDs) after every participant prepared and
// before any executes, and posts its truncate once all are done, without
// waiting for it. Recovery therefore has an unambiguous rule — a prepared
// participant named by a commit record rolls forward (RecoverCommit), one
// named by no record rolls back (RecoverAbort, presumed abort) — which
// needs the log to hold no record but the running transaction's whenever a
// participant holds an appended record; Prepare sees to that between its
// lock round and its append round (CommitLog.Settle).
//
// Deadlock is impossible by construction: locking is no-wait. A
// coordinator asks for all its locks in one round of single attempts; if
// any store is contended it gives back every lock that round was granted,
// backs off holding nothing and asks for the whole set again, up to
// lockRetries times. It never waits while it holds a lock, so no cycle of
// waiters can form, whatever order coordinators list their participants
// in — and a loser aborts before it has appended anything.

// ErrAborted wraps every error returned from a failed Prepare: the
// transaction took effect nowhere (prepared participants were rolled back
// and unlocked as far as their groups allowed).
var ErrAborted = errors.New("txn: distributed transaction aborted")

// ErrInDoubt wraps errors from a failed Commit: at least one participant
// prepared but the commit pass could not finish everywhere. Commit may be
// retried (it skips participants already committed); giving up instead
// requires recovery (Router.Recover / RecoverCommit), not Abort.
var ErrInDoubt = errors.New("txn: distributed commit incomplete")

// ErrCoordinatorCrash is the sentinel a step hook returns to simulate the
// coordinator vanishing mid-protocol: DistTxn returns it with NO cleanup,
// leaving every participant exactly as a real crash would — locks held,
// records appended, nothing rolled back (see Step for what concurrent
// participants do). Crash-point sweep harnesses and the 2pc-recovery
// claim scenario drive it.
var ErrCoordinatorCrash = errors.New("txn: coordinator crashed (injected)")

// Step identifies one coordinator-side action inside Prepare/Commit, at the
// granularity of a Store method. A step hook (SetStepHook) fires after each
// step completes, 3·S + 2 times for a span-S transaction that met no
// contention, and StepLogCommit is always the (2·S + 1)-th firing: every
// lock and every append fires before it, every execute after. Each phase
// runs on all participants at once, so within a phase the firings come in
// virtual-time order (kernel event order at equal instants — participant
// order when the chains are equally loaded). A lock given back because
// another store of the round was contended fires again when it is retaken.
//
// Returning an error — ErrCoordinatorCrash — from the hook kills the
// coordinator at that point: no participant starts another step and no
// further hook fires. A step another participant already has on the wire
// finishes, because posted WQEs outlive their coordinator; Prepare/Commit
// return the hook's error only after every participant fiber has exited,
// so recovery never races a half-dead transaction.
type Step int

// Coordinator steps, in protocol order for one participant. StepLogCommit
// and StepLogTruncate fire once per transaction (participant index -1);
// the rest fire once per participant.
const (
	StepLock        Step = iota // participant's group write lock taken
	StepAppend                  // write-set record durably appended
	StepLogCommit               // commit record durable on the coordinator log
	StepExecute                 // participant's log executed into the data region and its lock released
	StepLogTruncate             // commit record's truncate posted
)

func (s Step) String() string {
	switch s {
	case StepLock:
		return "lock"
	case StepAppend:
		return "append"
	case StepLogCommit:
		return "log-commit"
	case StepExecute:
		return "execute"
	case StepLogTruncate:
		return "log-truncate"
	default:
		return fmt.Sprintf("step(%d)", int(s))
	}
}

// Participant is one store's slice of a distributed transaction.
type Participant struct {
	// Store is the participant's replicated store. Stores must be distinct.
	Store *Store
	// Entries is the write-set applied to this store's data region.
	Entries []wal.Entry
}

// txnState tracks one participant's progress through the protocol.
type txnState int

const (
	stIdle      txnState = iota
	stLocked             // write lock held, nothing appended
	stAppending          // locked + append attempted: members may hold the record and a moved tail
	stPrepared           // locked + record durably appended
	stDone               // committed or rolled back, lock released
)

// DistTxn is one distributed transaction, started by Begin on a zero or
// spent DistTxn. It is driven by a single fiber (which runs the other
// participants of a parallel phase on child fibers of its own); once
// Commit or Abort has returned, Begin may start the next one on it.
type DistTxn struct {
	parts []Participant
	state []txnState
	tails []int // tail snapshot taken under the lock, before the append

	clog  *CommitLog // the coordinator's log, where the commit point is recorded
	ids   []int      // participant shard IDs named in the commit record
	txnID uint64     // assigned by the commit log at the commit point, 0 before it
	hook  func(Step, int) error
	halt  error // first hook error of this call: every participant stops

	// fanOut state, shared by the phases and kept from one transaction to
	// the next.
	errs     []error                               // each participant's result of the running phase
	body     func(*DistTxn, *sim.Fiber, int) error // the running phase, a method expression (no allocation)
	children []func(*sim.Fiber)                    // fiber bodies of participants 1, 2, … (runChild)
	running  int                                   // children that have not returned yet
	join     sim.Signal                            // fired, from kernel context, by the last child
	joinFn   func()                                // fires join
}

// Begin starts a distributed transaction on t over the given participants
// whose commit point is durably recorded on cl before phase two: Commit
// appends a record naming shardIDs (one per participant, same order) so
// recovery can roll the transaction forward past a coordinator crash. It
// returns t. Begin reuses what t kept from its earlier transactions, so a
// coordinator that keeps one DistTxn allocates nothing per transaction
// once it has run its widest span.
func (t *DistTxn) Begin(parts []Participant, cl *CommitLog, shardIDs []int) (*DistTxn, error) {
	if cl == nil {
		return nil, fmt.Errorf("%w: no commit log", ErrBadArgument)
	}
	if len(shardIDs) != len(parts) {
		return nil, fmt.Errorf("%w: %d shard IDs for %d participants", ErrBadArgument, len(shardIDs), len(parts))
	}
	n := len(parts)
	t.parts, t.clog, t.ids, t.txnID, t.hook, t.halt = parts, cl, shardIDs, 0, nil, nil
	t.state, t.tails, t.errs = zeroed(t.state, n), zeroed(t.tails, n), zeroed(t.errs, n)
	for i := len(t.children) + 1; i < n; i++ {
		t.children = append(t.children, func(cf *sim.Fiber) { t.runChild(cf, i) })
	}
	if t.joinFn == nil {
		t.joinFn = func() { t.join.Fire(nil) }
	}
	return t, nil
}

// zeroed returns s at length n, all zero, in s's array when it fits.
func zeroed[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// TxnID returns the transaction's commit-log ID — 0 until the commit
// record has been appended.
func (t *DistTxn) TxnID() uint64 { return t.txnID }

// SetStepHook installs a hook fired after every coordinator step, on the
// fiber of the participant that completed it (see Step for the order). A
// non-nil hook error stops the transaction where it stands and is
// returned from Prepare/Commit verbatim with no cleanup — the contract
// crash-injection harnesses rely on.
func (t *DistTxn) SetStepHook(fn func(s Step, participant int) error) { t.hook = fn }

// step fires the hook after a completed coordinator action and returns the
// error that halted the transaction, if any. Once halted no hook fires.
func (t *DistTxn) step(s Step, participant int) error {
	if t.halt == nil && t.hook != nil {
		t.halt = t.hook(s, participant)
	}
	return t.halt
}

// fanOut runs one phase on every participant at the same virtual instant:
// participant 0 on the coordinator's fiber f, every other one on a pooled
// child fiber, so the Store methods, the group's timeout-and-retry loop
// and any Replicator decorator run exactly as in a sequential walk — only
// their start times move. It returns once every participant has returned
// and every child fiber has exited, with the participants' errors joined
// in participant order. A single participant spawns nothing.
func (t *DistTxn) fanOut(f *sim.Fiber, body func(*DistTxn, *sim.Fiber, int) error) error {
	children := t.children[:len(t.parts)-1]
	t.body, t.running, t.join = body, len(children), sim.Signal{}
	for _, child := range children {
		f.Kernel().Spawn("2pc-participant", child)
	}
	t.errs[0] = body(t, f, 0)
	if len(children) > 0 {
		_ = f.Await(&t.join) // fired with nil; the results are in t.errs
	}
	return errors.Join(t.errs...)
}

// runChild is a child fiber's body: the running phase on participant i.
// The last child to finish wakes the coordinator through a kernel event
// rather than from its own stack, so it has exited by the time fanOut
// returns.
func (t *DistTxn) runChild(cf *sim.Fiber, i int) {
	t.errs[i] = t.body(t, cf, i)
	if t.running--; t.running == 0 {
		cf.Kernel().AfterFunc(0, t.joinFn, nil)
	}
}

// validate rejects a participant list Prepare cannot lock: empty, a nil
// store, or one store listed twice (its second lock would contend with
// the transaction's own, and two phase fibers would share one log).
func (t *DistTxn) validate() error {
	if len(t.parts) == 0 {
		return fmt.Errorf("%w: no participants", ErrBadArgument)
	}
	for i := range t.parts {
		if t.parts[i].Store == nil {
			return fmt.Errorf("%w: participant %d has no store", ErrBadArgument, i)
		}
		for j := 0; j < i; j++ {
			if t.parts[j].Store == t.parts[i].Store {
				return fmt.Errorf("%w: participants %d and %d share a store", ErrBadArgument, j, i)
			}
		}
	}
	return nil
}

// Prepare runs phase one: take every store's group write lock in one round
// (lockAll); wait until the commit log holds no other transaction's record
// (the clean-log rule, see CommitLog.Settle — the wait hides behind the
// lock round); then, on all participants at once, snapshot the tail and
// durably append the write-set record. On any failure every participant is
// rolled back and unlocked (best-effort — a participant whose group is
// down keeps its lock until RecoverAbort) and the causes are returned
// wrapped in ErrAborted. A malformed participant list is rejected the same
// way before anything is locked.
func (t *DistTxn) Prepare(f *sim.Fiber) error {
	t.halt = nil
	if err := t.validate(); err != nil {
		return fmt.Errorf("%w: %w", ErrAborted, err)
	}
	err := t.prepare(f)
	if t.halt != nil {
		return t.halt
	}
	if err != nil {
		return t.failPrepare(f, err)
	}
	return nil
}

// prepare is Prepare's three rounds; a hook's halt ends it after the round
// the hook fired in.
func (t *DistTxn) prepare(f *sim.Fiber) error {
	if err := t.lockAll(f); err != nil || t.halt != nil {
		return err
	}
	if err := t.clog.Settle(f); err != nil {
		return fmt.Errorf("commit log: %w", err)
	}
	return t.fanOut(f, (*DistTxn).appendOne)
}

// lockAll takes every participant's lock without ever waiting for one
// while holding another: a round of single attempts on all stores at once;
// if any store was contended, every lock the round was granted is given
// back (one more round) and the coordinator backs off holding nothing
// before it asks for the whole set again, lockRetries times at most
// (with participant 0's backoff schedule).
func (t *DistTxn) lockAll(f *sim.Fiber) error {
	first := t.parts[0].Store
	for attempt := 0; attempt < lockRetries; attempt++ {
		if err := t.fanOut(f, (*DistTxn).lockOne); err != nil || t.halt != nil {
			return err
		}
		if t.count(stLocked) == len(t.parts) {
			return nil
		}
		if err := t.fanOut(f, (*DistTxn).unlockOne); err != nil {
			return err
		}
		f.Sleep(first.backoff(attempt))
	}
	return ErrLockContended
}

// lockOne is one attempt at participant i's lock.
func (t *DistTxn) lockOne(f *sim.Fiber, i int) error {
	if t.halt != nil {
		return nil
	}
	ok, err := t.parts[i].Store.tryLock(f)
	if err != nil {
		return fmt.Errorf("participant %d lock: %w", i, err)
	}
	if ok {
		t.state[i] = stLocked
		_ = t.step(StepLock, i) // a halt is reported by Prepare
	}
	return nil
}

// unlockOne gives participant i's lock back after a contended round.
func (t *DistTxn) unlockOne(f *sim.Fiber, i int) error {
	if t.state[i] != stLocked {
		return nil
	}
	if err := t.parts[i].Store.WrUnlock(f); err != nil {
		return fmt.Errorf("participant %d unlock: %w", i, err)
	}
	t.state[i] = stIdle
	return nil
}

// appendOne is the append phase on participant i.
func (t *DistTxn) appendOne(f *sim.Fiber, i int) error {
	if t.halt != nil {
		return nil
	}
	p := &t.parts[i]
	tail, err := p.Store.Tail()
	if err != nil {
		return fmt.Errorf("participant %d tail: %w", i, err)
	}
	t.tails[i] = tail
	t.state[i] = stAppending
	if _, err := p.Store.Append(f, p.Entries); err != nil {
		return fmt.Errorf("participant %d append: %w", i, err)
	}
	t.state[i] = stPrepared
	_ = t.step(StepAppend, i) // a halt is reported by Prepare
	return nil
}

// failPrepare aborts everything the failed Prepare managed to do and
// returns cause wrapped in ErrAborted (with any rollback errors joined).
func (t *DistTxn) failPrepare(f *sim.Fiber, cause error) error {
	if err := t.rollback(f); err != nil {
		cause = errors.Join(cause, err)
	}
	return fmt.Errorf("%w: %w", ErrAborted, cause)
}

// Commit runs phase two. The commit record is first made durable on the
// coordinator's log — the commit point: before it, a crash aborts the
// transaction everywhere; at or after it, recovery rolls every
// participant forward. Then, on all participants at once, the
// prepared record is applied and the lock released behind it
// (ExecuteAllAndUnlock); once every participant is done the commit
// record's truncate is posted and Commit returns without waiting for it —
// the next Prepare, or Router.Recover, does (CommitLog.Settle). All
// participants must be prepared. On failure past the commit point every
// participant is still driven as far as its group allows, and Commit
// returns ErrInDoubt naming the ones that did not finish; it may be called
// again — finished participants are skipped, so a retry resumes where the
// fault hit. A commit-record append failure returns ErrAborted instead:
// nothing has executed yet, so the prepared participants are rolled back
// as a failed Prepare would.
func (t *DistTxn) Commit(f *sim.Fiber) error {
	t.halt = nil
	if len(t.parts) == 0 {
		return fmt.Errorf("%w: no participants", ErrBadArgument)
	}
	for i := range t.parts {
		if t.state[i] != stPrepared && t.state[i] != stDone {
			return fmt.Errorf("%w: participant %d not prepared", ErrBadArgument, i)
		}
	}
	if t.txnID == 0 { // not a retried Commit
		token := t.parts[0].Store.cfg.LockToken
		id, err := t.clog.Append(f, token, t.ids)
		if err != nil {
			// The commit point was never durably recorded and no
			// participant has executed: abort is still sound.
			return t.failPrepare(f, fmt.Errorf("commit record: %w", err))
		}
		t.txnID = id
		if err := t.step(StepLogCommit, -1); err != nil {
			return err
		}
	}
	err := t.fanOut(f, (*DistTxn).commitOne)
	if t.halt != nil {
		return t.halt
	}
	if err != nil {
		return fmt.Errorf("%w: %w", ErrInDoubt, err)
	}
	// The transaction IS committed everywhere; a truncate that fails is
	// the next Prepare's to retry (Settle), not this caller's.
	t.clog.PostTruncate(t.txnID)
	return t.step(StepLogTruncate, -1)
}

// commitOne is the execute-and-unlock step on participant i.
func (t *DistTxn) commitOne(f *sim.Fiber, i int) error {
	if t.state[i] == stDone || t.halt != nil {
		return nil
	}
	if _, err := t.parts[i].Store.ExecuteAllAndUnlock(f); err != nil {
		return fmt.Errorf("participant %d execute: %w", i, err)
	}
	t.state[i] = stDone
	_ = t.step(StepExecute, i) // a halt is reported by Commit
	return nil
}

// Abort rolls back every participant the transaction touched: the durable
// tail rewinds over the prepared record and the lock is released. Errors
// from unreachable groups are joined and returned; healthy participants
// are still cleaned up.
func (t *DistTxn) Abort(f *sim.Fiber) error {
	return t.rollback(f)
}

// rollback undoes lock/append on every participant not already done,
// continuing past per-participant failures. A participant whose append was
// only attempted is rewound like a prepared one: a failed Append restores
// the client's tail, but whether every member took the old tail back is
// known only from a rewind that is acknowledged — and until it is, the
// lock stays, or the next transaction on the store could commit this
// one's record.
func (t *DistTxn) rollback(f *sim.Fiber) error {
	var errs []error
	for i := range t.parts {
		p := &t.parts[i]
		switch t.state[i] {
		case stAppending, stPrepared:
			if err := p.Store.writePtr(f, ctrlTailPtr, t.tails[i]); err != nil {
				errs = append(errs, fmt.Errorf("participant %d tail rollback: %w", i, err))
				continue // keep the lock: the store is in doubt until recovery
			}
			fallthrough
		case stLocked:
			if err := p.Store.WrUnlock(f); err != nil {
				errs = append(errs, fmt.Errorf("participant %d unlock: %w", i, err))
				continue
			}
			t.state[i] = stDone
		}
	}
	return errors.Join(errs...)
}

// Prepared reports how many participants are currently in the prepared
// state (diagnostics and tests).
func (t *DistTxn) Prepared() int { return t.count(stPrepared) }

// count returns how many participants are in state st.
func (t *DistTxn) count(st txnState) int {
	n := 0
	for _, s := range t.state {
		if s == st {
			n++
		}
	}
	return n
}

// RecoverAbort resolves an orphaned prepared transaction on one store
// after its coordinator crashed: if the group write lock currently holds
// token, the durable tail is rolled back to the head — discarding every
// prepared-but-unexecuted record — and the lock is released. It reports
// whether a rollback happened.
//
// RecoverAbort is only sound for transactions with NO durable commit
// record. The commit record is appended after every participant prepared
// and before any executes, so a token-locked store with no record belongs
// to a transaction that never reached its commit point — aborting it
// cannot discard committed work. A coordinator that crashed past the
// commit point leaves a record behind, and recovery (Router.Recover)
// must resolve those stores with RecoverCommit instead: rolling them back
// here would erase half of a committed transaction — exactly the
// partial-commit hazard the commit log exists to close. The rollback
// targets stores whose log is drained at prepare time (every committed
// record executed), which the shard router guarantees; pending committed
// records would be discarded along with the prepared one.
func RecoverAbort(f *sim.Fiber, s *Store, token uint64) (bool, error) {
	if w, err := s.lockWord(); err != nil || w != token {
		return false, err
	}
	head, err := s.Head()
	if err != nil {
		return false, err
	}
	if err := s.writePtr(f, ctrlTailPtr, head); err != nil {
		return false, err
	}
	if err := s.finishUnlock(f, token); err != nil {
		return false, err
	}
	return true, nil
}

// RecoverCommit rolls an orphaned prepared participant *forward* after
// its coordinator crashed past the commit point: if the group write lock
// currently holds token, every pending record is executed into the data
// region and the lock released behind it (ExecuteAllAndUnlock's step, under
// the crashed coordinator's token). It returns the number of records
// applied and whether a roll-forward happened.
//
// Callers must only invoke this for stores named by a durable commit
// record (see CommitLog): the record is written after every participant
// prepared and before any executes, so a token-locked store named by one
// holds exactly the logged transaction's prepared record — executing it
// completes the commit the coordinator started. A named store that is no
// longer token-locked was already executed and unlocked before the crash;
// it is skipped (false, nil).
func RecoverCommit(f *sim.Fiber, s *Store, token uint64) (int, bool, error) {
	if w, err := s.lockWord(); err != nil || w != token {
		return 0, false, err
	}
	n, err := s.drain(f, token)
	return n, err == nil, err
}
