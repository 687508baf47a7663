// Package shard partitions a keyspace across many independent replication
// groups. Each shard owns its own protocol group — its own chain, NICs and
// fault domain — and a client-side Router maps keys to shards, serves
// single-key reads and durable writes, and runs cross-shard transactions
// with internal/txn's two-phase commit over the per-shard group locks.
//
// Consistency contract: operations within one shard are strictly
// serializable (they ride the shard's single replication group, §4 of the
// paper). Cross-shard transactions are atomic and serializable via 2PC
// with no-wait group locks ("strong partition serializable": serializable
// globally, strictly so per partition).
package shard

import (
	"errors"
	"fmt"
	"slices"

	"hyperloop/internal/sim"
	"hyperloop/internal/txn"
	"hyperloop/internal/wal"
)

// Canonical error sentinels, matching the internal/protocol convention.
var (
	// ErrBadArgument reports a key, payload or config outside the router's
	// contract.
	ErrBadArgument = errors.New("shard: bad argument")
	// ErrShardFull reports a shard whose slot directory is exhausted: more
	// distinct keys landed on it than SlotsPerShard.
	ErrShardFull = errors.New("shard: out of slots")
)

// Policy selects how keys map to shards.
type Policy int

const (
	// Hash spreads keys uniformly with a 64-bit mix — the default, robust
	// to any key distribution.
	Hash Policy = iota
	// Range splits [0, Keys) into contiguous runs, one per shard —
	// preserves key locality, exposes skew.
	Range
)

func (p Policy) String() string {
	switch p {
	case Hash:
		return "hash"
	case Range:
		return "range"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Config sizes a Router and the per-shard stores beneath it.
type Config struct {
	// Shards is the number of partitions (required, ≥ 1).
	Shards int
	// Policy maps keys to shards (default Hash). Range requires Keys.
	Policy Policy
	// Keys is the keyspace size [0, Keys); required for Range, advisory
	// for Hash.
	Keys uint64
	// SlotSize is the fixed per-key value capacity in the shard's data
	// region (default 128).
	SlotSize int
	// SlotsPerShard caps distinct keys per shard (default 64).
	SlotsPerShard int
	// LogSize is each shard store's WAL ring size (default 4096).
	LogSize int
	// LockToken identifies this router in the per-shard group lock words
	// (default 1).
	LockToken uint64
}

// Coordinator is the ID New passes to its build callback for the group that
// holds the router's commit log, ahead of shard 0.
const Coordinator = -1

// The coordinator's store. coordSlots bounds the commit records alive at
// once: the running transaction's plus those left in doubt until Recover
// (a finished transaction's slot is free again by the next append). The
// commit log lives in the data region; the WAL ring stays empty.
const (
	coordLogSize = 256
	coordSlots   = 16
)

func (c *Config) fill() error {
	if c.Shards < 1 {
		return fmt.Errorf("%w: need at least one shard", ErrBadArgument)
	}
	if c.SlotSize <= 0 {
		c.SlotSize = 128
	}
	if c.SlotsPerShard <= 0 {
		c.SlotsPerShard = 64
	}
	if c.LogSize <= 0 {
		c.LogSize = 4096
	}
	if c.LockToken == 0 {
		c.LockToken = 1
	}
	if c.Policy == Range && c.Keys == 0 {
		return fmt.Errorf("%w: range policy needs Keys", ErrBadArgument)
	}
	return nil
}

// MirrorSize returns the mirror footprint each shard's group must provide
// for this config. Callers size their protocol groups with it before
// building the Router.
func (c Config) MirrorSize() int {
	if err := c.fill(); err != nil {
		return 0
	}
	return txn.MirrorSizeFor(c.LogSize, c.SlotsPerShard*c.SlotSize)
}

// CoordMirrorSize returns the mirror footprint the coordinator's group must
// provide: room for commit records naming up to Shards participants.
func (c Config) CoordMirrorSize() int {
	if err := c.fill(); err != nil {
		return 0
	}
	return txn.MirrorSizeFor(coordLogSize, txn.CommitLogSizeFor(coordSlots, c.Shards))
}

// Backend is the replication group one shard runs on: the txn.Replicator
// surface plus teardown. Every protocol.Protocol satisfies it.
type Backend interface {
	txn.Replicator
	Close()
}

// slot is one key's home in a shard's data region.
type slot struct {
	idx int // slot index, data offset = idx*SlotSize
	n   int // bytes written by the last Put
}

// Shard is one partition: a replication group, the transactional store on
// top of it, and the client-side slot directory.
type Shard struct {
	ID      int
	Backend Backend
	Store   *txn.Store

	dir     map[uint64]*slot
	next    int
	free    []int       // slot indexes returned by aborted first-touch allocations
	entries []wal.Entry // Router.Txn's write set on this shard, reused
}

// slotFor returns key's slot, allocating one on first touch — reclaimed
// slots first, then the next never-used index. fresh reports a first
// touch, so callers can release the slot if the operation aborts.
func (s *Shard) slotFor(key uint64, size int) (sl *slot, fresh bool, err error) {
	if sl, ok := s.dir[key]; ok {
		return sl, false, nil
	}
	idx := -1
	if n := len(s.free); n > 0 {
		idx = s.free[n-1]
		s.free = s.free[:n-1]
	} else if s.next < size {
		idx = s.next
		s.next++
	}
	if idx < 0 {
		return nil, false, fmt.Errorf("%w: shard %d at %d keys", ErrShardFull, s.ID, s.next)
	}
	sl = &slot{idx: idx}
	s.dir[key] = sl
	return sl, true, nil
}

// release returns a freshly allocated slot to the shard after the
// operation that allocated it aborted, so a stream of aborting
// transactions cannot permanently consume SlotsPerShard capacity.
func (s *Shard) release(key uint64) {
	sl, ok := s.dir[key]
	if !ok {
		return
	}
	delete(s.dir, key)
	s.free = append(s.free, sl.idx)
}

// Write is one key update inside a (possibly cross-shard) transaction.
type Write struct {
	Key  uint64
	Data []byte
}

// Stats counts router-level outcomes.
type Stats struct {
	Puts, Gets uint64 // single-key operations served (Gets counts misses too)
	Misses     uint64 // Gets of never-written keys
	Commits    uint64 // transactions committed
	Aborts     uint64 // transactions aborted (2PC prepare or commit-record failures)
	InDoubt    uint64 // transactions left in doubt mid-commit (txn.ErrInDoubt)
	CrossShard uint64 // committed transactions spanning >1 shard
}

// Router maps keys onto shards and drives operations against them. A
// Router is driven from simulation fibers on one kernel; like the groups
// beneath it, it is not safe for concurrent use from real OS threads, and
// one fiber at a time runs Txn (the router has one lock token).
type Router struct {
	cfg    Config
	shards []*Shard
	coord  Backend        // the commit log's own replication group
	clog   *txn.CommitLog // the 2PC commit log, on coord
	hook   func(txn.Step, int) error
	stats  Stats
	tx     txn.DistTxn       // Txn's, reused like the lists below
	ids    []int             // the running transaction's shard IDs
	parts  []txn.Participant // its participants
	fresh  []allocation      // the slots it allocated
}

// allocation is a slot a transaction allocated on first touch of key.
type allocation struct {
	sh  *Shard
	key uint64
}

// New builds a Router with cfg.Shards shards, calling build once for the
// coordinator's group (id Coordinator), which holds the 2PC commit log, and
// then once per shard. Each group must be independent (its own NICs and
// device — mirrors start at device offset 0, so groups cannot share) and
// sized to at least cfg.CoordMirrorSize() and cfg.MirrorSize() respectively.
func New(cfg Config, build func(id int) (Backend, error)) (*Router, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	// open builds group id and the transactional store on it.
	open := func(id, logSize, dataSize int) (Backend, *txn.Store, error) {
		b, err := build(id)
		if err != nil {
			return nil, nil, err
		}
		st, err := txn.New(b, txn.Config{LogSize: logSize, DataSize: dataSize, LockToken: cfg.LockToken})
		if err != nil {
			b.Close()
			return nil, nil, err
		}
		return b, st, nil
	}
	coord, st, err := open(Coordinator, coordLogSize, txn.CommitLogSizeFor(coordSlots, cfg.Shards))
	if err != nil {
		return nil, fmt.Errorf("coordinator group: %w", err)
	}
	r := &Router{cfg: cfg, coord: coord}
	if r.clog, err = txn.NewCommitLog(st, cfg.Shards); err != nil {
		r.Close()
		return nil, fmt.Errorf("coordinator log: %w", err)
	}
	for i := 0; i < cfg.Shards; i++ {
		b, st, err := open(i, cfg.LogSize, cfg.SlotsPerShard*cfg.SlotSize)
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		r.shards = append(r.shards, &Shard{ID: i, Backend: b, Store: st, dir: make(map[uint64]*slot)})
	}
	return r, nil
}

// Shards returns the number of partitions.
func (r *Router) Shards() int { return len(r.shards) }

// Shard returns partition i (experiments and tests reach through it for
// per-shard stores and backends).
func (r *Router) Shard(i int) *Shard { return r.shards[i] }

// Stats returns a snapshot of router-level counters.
func (r *Router) Stats() Stats { return r.stats }

// CommitLog returns the coordinator commit log.
func (r *Router) CommitLog() *txn.CommitLog { return r.clog }

// SetTxnStepHook installs a coordinator step hook on every transaction
// Txn drives — the deterministic fault-injection surface crash-point
// sweeps use. The participant index it receives counts the transaction's
// shards in ascending shard-ID order; txn.Step gives the firing order
// (locks, then appends, then execute-and-unlock steps, each on all shards
// at once). A hook returning txn.ErrCoordinatorCrash makes Txn
// return it verbatim with no cleanup and no stats accounting once every
// shard has finished the step it had on the wire, leaving shards exactly
// as a mid-protocol coordinator crash would; Recover resolves them. Pass
// nil to remove the hook.
func (r *Router) SetTxnStepHook(fn func(s txn.Step, participant int) error) { r.hook = fn }

// mix64 is the splitmix64 finalizer — a full-avalanche 64-bit mix, so
// sequential keys spread uniformly across shards.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ShardOf returns the shard index owning key. Deterministic: a pure
// function of (key, Shards, Policy, Keys).
func (r *Router) ShardOf(key uint64) int {
	n := uint64(len(r.shards))
	switch r.cfg.Policy {
	case Range:
		width := (r.cfg.Keys + n - 1) / n
		s := key / width
		if s >= n {
			s = n - 1
		}
		return int(s)
	default:
		return int(mix64(key) % n)
	}
}

// Put durably writes data as key's value: replicated to every member of
// the owning shard's group before it returns. len(data) must fit SlotSize.
func (r *Router) Put(f *sim.Fiber, key uint64, data []byte) error {
	if len(data) > r.cfg.SlotSize {
		return fmt.Errorf("%w: value %d exceeds slot size %d", ErrBadArgument, len(data), r.cfg.SlotSize)
	}
	sh := r.shards[r.ShardOf(key)]
	sl, fresh, err := sh.slotFor(key, r.cfg.SlotsPerShard)
	if err != nil {
		return err
	}
	if err := sh.Store.WriteData(f, sl.idx*r.cfg.SlotSize, data); err != nil {
		if fresh {
			sh.release(key)
		}
		return err
	}
	sl.n = len(data)
	r.stats.Puts++
	return nil
}

// Get returns key's current value from the owning shard's local mirror, or
// nil if the key has never been written. The value is a read-only view of
// the mirror (txn.Store.ViewData), valid until the caller next yields to
// the kernel or calls Get again; a caller that keeps it clones it.
func (r *Router) Get(key uint64) ([]byte, error) {
	r.stats.Gets++
	sh := r.shards[r.ShardOf(key)]
	sl, ok := sh.dir[key]
	if !ok || sl.n == 0 {
		r.stats.Misses++
		return nil, nil
	}
	return sh.Store.ViewData(sl.idx*r.cfg.SlotSize, sl.n)
}

// Txn atomically applies writes, which may span shards. Writes are grouped
// per shard and the participant list is sorted by shard ID — which defines
// participant indexes, hook order and the commit record; deadlock freedom
// does not need it, txn's locking is no-wait — then driven through txn's
// two-phase commit, which runs the shards' lock attempts, their appends and
// later their execute-and-unlock steps concurrently.
// On abort (some shard's prepare failed, or the commit record could not be
// written) the error wraps txn.ErrAborted, no write took effect, and slots
// freshly allocated for this transaction are released; on txn.ErrInDoubt
// the transaction may yet commit, so allocations are kept and Recover
// resolves the outcome.
func (r *Router) Txn(f *sim.Fiber, writes []Write) error {
	if len(writes) == 0 {
		return nil
	}
	// Participants are kept sorted by shard ID as they are found: a linear
	// scan of at most Shards entries, which for the usual handful of keys
	// beats a map plus a sort. The lists and every shard's entries are the
	// router's, reused from one transaction to the next.
	r.ids, r.parts, r.fresh = r.ids[:0], r.parts[:0], r.fresh[:0]
	release := func() {
		for _, a := range r.fresh {
			a.sh.release(a.key)
		}
	}
	for _, w := range writes {
		if len(w.Data) > r.cfg.SlotSize {
			release()
			return fmt.Errorf("%w: value %d exceeds slot size %d", ErrBadArgument, len(w.Data), r.cfg.SlotSize)
		}
		sh := r.shards[r.ShardOf(w.Key)]
		sl, isNew, err := sh.slotFor(w.Key, r.cfg.SlotsPerShard)
		if err != nil {
			release()
			return err
		}
		if isNew {
			r.fresh = append(r.fresh, allocation{sh, w.Key})
		}
		i := 0
		for i < len(r.ids) && r.ids[i] < sh.ID {
			i++
		}
		if i == len(r.ids) || r.ids[i] != sh.ID {
			r.ids = slices.Insert(r.ids, i, sh.ID)
			r.parts = slices.Insert(r.parts, i, txn.Participant{Store: sh.Store, Entries: sh.entries[:0]})
		}
		r.parts[i].Entries = append(r.parts[i].Entries, wal.Entry{Off: sl.idx * r.cfg.SlotSize, Data: w.Data})
		sh.entries = r.parts[i].Entries
	}
	tx, err := r.tx.Begin(r.parts, r.clog, r.ids)
	if err != nil {
		release()
		return err
	}
	tx.SetStepHook(r.hook)
	if err := tx.Prepare(f); err != nil {
		if errors.Is(err, txn.ErrCoordinatorCrash) {
			// The injected crash killed the coordinator mid-protocol:
			// leave every shard exactly as the crash did, no accounting.
			return err
		}
		r.stats.Aborts++
		release()
		return err
	}
	if err := tx.Commit(f); err != nil {
		switch {
		case errors.Is(err, txn.ErrCoordinatorCrash):
		case errors.Is(err, txn.ErrAborted):
			// The commit record could not be written; every participant
			// was rolled back before any executed.
			r.stats.Aborts++
			release()
		case errors.Is(err, txn.ErrInDoubt):
			r.stats.InDoubt++
		}
		return err
	}
	// The commit drained each participant's log (ExecuteAllAndUnlock), so
	// the post-commit value lengths are visible to Get.
	for _, w := range writes {
		r.shards[r.ShardOf(w.Key)].dir[w.Key].n = len(w.Data)
	}
	r.stats.Commits++
	if len(r.ids) > 1 {
		r.stats.CrossShard++
	}
	return nil
}

// RecoverStats reports what one Recover pass resolved.
type RecoverStats struct {
	// Forward counts shards rolled forward: prepared participants named
	// by a durable commit record, whose pending records were executed.
	Forward int
	// Back counts shards rolled back: token-locked participants with no
	// commit record (presumed abort).
	Back int
	// Records counts commit records resolved and truncated.
	Records int
}

// Recover resolves orphaned transactions on every shard after a
// coordinator crash. The coordinator commit log is consulted first: a
// token-locked shard named by a commit record is
// rolled *forward* with txn.RecoverCommit — the record is only written
// once every participant prepared, so the transaction is committed and
// executing its prepared record finishes the job. Token-locked shards
// named by no record roll back with txn.RecoverAbort (presumed abort,
// sound because the record is written before any participant executes).
// Once every shard is resolved the records are truncated; if any shard
// failed to recover, its records are kept for the next pass. Before the
// scan Recover waits for the truncates finished transactions left posted
// (CommitLog.Settle), so none of their records is taken for a live one.
//
// Recover repairs durable state, not the client-side key directory: keys
// whose transaction was rolled forward stay invisible to Get on this
// router until rewritten (their slots remain allocated), exactly as a
// restarted coordinator with a cold directory would see them.
func (r *Router) Recover(f *sim.Fiber) (RecoverStats, error) {
	var rs RecoverStats
	var errs []error
	if err := r.clog.Settle(f); err != nil {
		errs = append(errs, fmt.Errorf("coordinator log: %w", err))
	}
	recs, err := r.clog.Records()
	if err != nil {
		return rs, fmt.Errorf("coordinator log scan: %w", err)
	}
	recs = slices.DeleteFunc(recs, func(rec txn.CommitRecord) bool { return rec.Token != r.cfg.LockToken })
	committed := make(map[int]bool)
	for _, rec := range recs {
		for _, sid := range rec.Shards {
			committed[sid] = true
		}
	}
	for _, sh := range r.shards {
		if committed[sh.ID] {
			_, ok, err := txn.RecoverCommit(f, sh.Store, r.cfg.LockToken)
			if err != nil {
				errs = append(errs, fmt.Errorf("shard %d: roll forward: %w", sh.ID, err))
				continue
			}
			if ok {
				rs.Forward++
			}
			continue
		}
		ok, err := txn.RecoverAbort(f, sh.Store, r.cfg.LockToken)
		if err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", sh.ID, err))
			continue
		}
		if ok {
			rs.Back++
		}
	}
	if len(errs) == 0 {
		for _, rec := range recs {
			if err := r.clog.Truncate(f, rec.TxnID); err != nil {
				errs = append(errs, fmt.Errorf("txn %d: record truncate: %w", rec.TxnID, err))
				continue
			}
			rs.Records++
		}
	}
	return rs, errors.Join(errs...)
}

// Close tears down every shard's replication group, then the coordinator's.
func (r *Router) Close() {
	for _, sh := range r.shards {
		sh.Backend.Close()
	}
	r.coord.Close()
}
