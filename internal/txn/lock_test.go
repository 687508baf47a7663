package txn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"hyperloop/internal/protocol"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
	"hyperloop/internal/wal"
)

// memberLockWord reads the live lock word of one group member.
func memberLockWord(t *testing.T, nic *rdma.NIC) uint64 {
	t.Helper()
	var b [8]byte
	if err := nic.Memory().Read(ctrlWrLock, b[:]); err != nil {
		t.Errorf("%s: lock word: %v", nic.Host(), err)
	}
	return binary.LittleEndian.Uint64(b[:])
}

// TestFailedUnlockKeepsClientLocked: the last member of a 3-replica chain
// drops off 4 µs into WrUnlock, so the release reaches members 1 and 2 but
// is never acknowledged. The client must go on believing it holds the lock
// — that is what recovery consults — and once the member is back (the group
// set up again over all three) the recovery release, which finds the word
// already 0 on two members and still the token on the third, must free the
// store for the next writer.
func TestFailedUnlockKeepsClientLocked(t *testing.T) {
	rig := newStepRig(t, stepRigConfig{replicas: 3, opTimeout: 200 * sim.Microsecond})
	const token = 1 // Config's default
	last := rig.nics[2]
	rig.run(t, func(f *sim.Fiber) {
		st := rig.st
		if err := st.WrLock(f); err != nil {
			t.Errorf("lock: %v", err)
			return
		}
		inFlight := rig.g.InFlight()
		f.Kernel().AfterFunc(4*sim.Microsecond, func() { last.SetDown(true) }, nil)
		if err := st.WrUnlock(f); !errors.Is(err, protocol.ErrTimeout) {
			t.Errorf("unlock = %v, want a timeout", err)
			return
		}
		if got := rig.g.InFlight(); got != inFlight {
			t.Errorf("%d ops in flight after the failed unlock, %d before it", got, inFlight)
		}
		words := []uint64{memberLockWord(t, rig.nics[0]), memberLockWord(t, rig.nics[1]), memberLockWord(t, last)}
		if words[0] != 0 || words[1] != 0 || words[2] != token {
			t.Errorf("member lock words = %v, want the release applied on members 1 and 2 only", words)
		}
		if locked, err := st.Locked(); err != nil || !locked {
			t.Errorf("client believes the lock is free after a failed release (locked=%v, err=%v)", locked, err)
		}

		last.SetDown(false)
		rig.g.Close()
		if err := rig.setup(rig.env); err != nil {
			t.Errorf("group set-up with the member back: %v", err)
			return
		}
		st = rig.st // a new store over the same client mirror
		if rolled, err := RecoverAbort(f, st, token); err != nil || !rolled {
			t.Errorf("recover = (%v, %v), want the half-released lock resolved", rolled, err)
		}
		for m, nic := range rig.nics {
			if w := memberLockWord(t, nic); w != 0 {
				t.Errorf("member %d lock word = %d after recovery", m+1, w)
			}
		}
		start := f.Now()
		if err := st.WrLock(f); err != nil {
			t.Errorf("lock after recovery: %v", err)
			return
		}
		if d := f.Now().Sub(start); d > 20*sim.Microsecond {
			t.Errorf("lock after recovery took %v: it met a partial grant", d)
		}
		if err := st.WrUnlock(f); err != nil {
			t.Errorf("unlock after recovery: %v", err)
		}
	})
}

// TestUnlockWithoutHolding: a release is refused on the client's own view
// before anything is sent.
func TestUnlockWithoutHolding(t *testing.T) {
	rig := newStepRig(t, stepRigConfig{replicas: 2})
	rig.run(t, func(f *sim.Fiber) {
		issued, _ := rig.g.Stats()
		if err := rig.st.WrUnlock(f); err == nil {
			t.Error("unlock of a free lock succeeded")
		}
		if _, err := rig.st.ExecuteAllAndUnlock(f); err == nil {
			t.Error("execute-and-unlock without the lock succeeded")
		}
		if now, _ := rig.g.Stats(); now != issued {
			t.Errorf("%d group ops issued by refused releases", now-issued)
		}
		// A member that holds someone else's token is still an error, and a
		// failed release: the client keeps the lock.
		if err := rig.st.WrLock(f); err != nil {
			t.Errorf("lock: %v", err)
			return
		}
		if err := rig.nics[1].Memory().Write(ctrlWrLock, []byte{7, 0, 0, 0, 0, 0, 0, 0}); err != nil {
			t.Error(err)
		}
		if err := rig.st.WrUnlock(f); err == nil {
			t.Error("unlock over a member holding token 7 succeeded")
		}
		if locked, err := rig.st.Locked(); err != nil || !locked {
			t.Errorf("client's lock word after the refused release: locked=%v, err=%v", locked, err)
		}
	})
}

// coordProbe watches one coordinator through the Replicators of its stores.
// A lock attempt issued after the coordinator sat idle for a positive time
// ends a backoff sleep; at that instant no member of any store may hold the
// coordinator's token — only its own ops could have cleared it meanwhile,
// so it held nothing throughout the sleep.
type coordProbe struct {
	t         *testing.T
	token     uint64
	members   []*rdma.NIC // every member of every group the coordinator locks
	busy      int         // blocking group calls in progress
	idleSince sim.Time
	backoffs  int
}

type probeRep struct {
	Replicator
	c *coordProbe
}

func (p *probeRep) enter(f *sim.Fiber, lockAttempt bool) {
	c := p.c
	if lockAttempt && c.busy == 0 && f.Now() > c.idleSince {
		c.backoffs++
		for _, nic := range c.members {
			if memberLockWord(c.t, nic) == c.token {
				c.t.Errorf("coordinator %d slept %v in backoff while %s held its token",
					c.token, f.Now().Sub(c.idleSince), nic.Host())
			}
		}
	}
	c.busy++
}

func (p *probeRep) exit(f *sim.Fiber) {
	if p.c.busy--; p.c.busy == 0 {
		p.c.idleSince = f.Now()
	}
}

func (p *probeRep) CAS(f *sim.Fiber, off int, old, new uint64, exec []bool) ([]uint64, error) {
	p.enter(f, off == ctrlWrLock && old == 0)
	defer p.exit(f)
	return p.Replicator.CAS(f, off, old, new, exec)
}

func (p *probeRep) Write(f *sim.Fiber, off, size int, durable bool) error {
	p.enter(f, false)
	defer p.exit(f)
	return p.Replicator.Write(f, off, size, durable)
}

// TestNoWaitLockingUnderContention: two coordinators run 50 logged
// transactions each over the same two groups, listing them in opposite
// orders and starting at the same instant — the schedule that deadlocks
// lock-and-wait without a global order and livelocks no-wait without an
// asymmetric backoff. All 100 must commit, and neither coordinator may ever
// sleep holding a lock.
func TestNoWaitLockingUnderContention(t *testing.T) {
	const txns = 50
	rig := newTwoPCRig(t, 4, nil, 0) // groups 0, 1: the shared stores; 2, 3: each coordinator's commit log
	var shared []*rdma.NIC
	for g := 0; g < 2; g++ {
		shared = append(shared, rig.groups[g].ReplicaNIC(0), rig.groups[g].ReplicaNIC(1))
	}
	type coordinator struct {
		probe  *coordProbe
		stores []*Store // in this coordinator's participant order
		offs   []int
		cl     *CommitLog
		last   string
	}
	newCoord := func(token uint64, order [2]int, logGroup int) *coordinator {
		c := &coordinator{probe: &coordProbe{t: t, token: token, members: shared}}
		open := func(g int) *Store {
			st, err := New(&probeRep{Replicator: rig.groups[g], c: c.probe},
				Config{LogSize: testLog, DataSize: testData, LockToken: token})
			if err != nil {
				t.Fatal(err)
			}
			return st
		}
		for _, g := range order {
			c.stores = append(c.stores, open(g))
			c.offs = append(c.offs, 256*int(token)+64*g)
		}
		cl, err := NewCommitLog(open(logGroup), 2)
		if err != nil {
			t.Fatal(err)
		}
		c.cl = cl
		return c
	}
	coords := []*coordinator{newCoord(1, [2]int{0, 1}, 2), newCoord(2, [2]int{1, 0}, 3)}
	for _, c := range coords {
		c := c
		rig.k.Spawn(fmt.Sprintf("coordinator-%d", c.probe.token), func(f *sim.Fiber) {
			for n := 0; n < txns; n++ {
				c.last = fmt.Sprintf("c%d-%02d", c.probe.token, n)
				ps := make([]Participant, len(c.stores))
				for i, st := range c.stores {
					ps[i] = Participant{Store: st, Entries: []wal.Entry{{Off: c.offs[i], Data: []byte(c.last)}}}
				}
				tx, err := new(DistTxn).Begin(ps, c.cl, []int{0, 1})
				if err == nil {
					err = tx.Prepare(f)
				}
				if err == nil {
					err = tx.Commit(f)
				}
				if err != nil {
					t.Errorf("coordinator %d txn %d: %v", c.probe.token, n, err)
					return
				}
			}
		})
	}
	if err := rig.k.RunUntil(rig.k.Now().Add(30 * sim.Second)); err != nil {
		t.Fatalf("kernel: %v", err)
	}
	for _, c := range coords {
		if c.last != fmt.Sprintf("c%d-%02d", c.probe.token, txns-1) {
			t.Errorf("coordinator %d stopped at %q", c.probe.token, c.last)
		}
		for i, st := range c.stores {
			if err := expectData(st, c.offs[i], []byte(c.last)); err != nil {
				t.Errorf("coordinator %d store %d: %v", c.probe.token, i, err)
			}
		}
		mustUnlocked(t, c.stores)
		t.Logf("coordinator %d backed off %d times", c.probe.token, c.probe.backoffs)
	}
	if coords[0].probe.backoffs+coords[1].probe.backoffs == 0 {
		t.Error("the coordinators never contended: the schedule does not test the backoff")
	}
}

// TestNoWaitLockingGivesUpHoldingNothing: a third party holds one of two
// stores for good. Prepare must end in ErrAborted wrapping ErrLockContended
// with the other store released on every member and nothing appended
// anywhere.
func TestNoWaitLockingGivesUpHoldingNothing(t *testing.T) {
	rig := newTwoPCRig(t, 2, nil, 0)
	open := func(g int, token uint64) *Store {
		st, err := New(rig.groups[g], Config{LogSize: testLog, DataSize: testData, LockToken: token})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	free, held, squatter := open(0, 1), open(1, 1), open(1, 9)
	cl := memLog(t) // never reached: the transaction gives up in its lock round
	rig.run(t, func(f *sim.Fiber) {
		if err := squatter.WrLock(f); err != nil {
			t.Errorf("third party lock: %v", err)
			return
		}
		var issued [2]int64
		for g := range issued {
			issued[g], _ = rig.groups[g].Stats()
		}
		err := begin(t, parts([]*Store{free, held}, "never"), cl).Prepare(f)
		if !errors.Is(err, ErrAborted) || !errors.Is(err, ErrLockContended) {
			t.Errorf("prepare = %v, want ErrAborted wrapping ErrLockContended", err)
		}
		for g, st := range []*Store{free, held} {
			if tail, err := st.Tail(); err != nil || tail != 0 {
				t.Errorf("store %d tail = %d (%v): something was appended", g, tail, err)
			}
			for m := 0; m < 2; m++ {
				want := []uint64{0, 9}[g]
				if w := memberLockWord(t, rig.groups[g].ReplicaNIC(m)); w != want {
					t.Errorf("store %d member %d lock word = %d, want %d", g, m+1, w, want)
				}
			}
		}
		// lockRetries rounds, each a grant and a release on the free store,
		// an attempt and its (empty) undo on the held one, and not one
		// gWRITE.
		for g := range issued {
			if now, _ := rig.groups[g].Stats(); now-issued[g] != 2*lockRetries {
				t.Errorf("group %d saw %d ops, want %d gCAS", g, now-issued[g], 2*lockRetries)
			}
		}
		if err := squatter.WrUnlock(f); err != nil {
			t.Errorf("third party unlock: %v", err)
		}
	})
}

// TestBackoffBreaksSymmetry: the schedule is a function of token and
// attempt alone, grows with the attempt, and differs between the tokens of
// two colliding writers at every attempt.
func TestBackoffBreaksSymmetry(t *testing.T) {
	store := func(token uint64) *Store {
		st, err := New(newMemRep(MirrorSizeFor(testLog, testData)), Config{LogSize: testLog, DataSize: testData, LockToken: token})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := store(1), store(2)
	for attempt := 0; attempt < 100; attempt++ {
		da, db := a.backoff(attempt), b.backoff(attempt)
		if da != store(1).backoff(attempt) {
			t.Fatalf("attempt %d: backoff is not reproducible", attempt)
		}
		if diff := da - db; diff < sim.Microsecond && -diff < sim.Microsecond {
			t.Errorf("attempt %d: tokens 1 and 2 back off %v and %v — closer than a lock round can tell apart", attempt, da, db)
		}
		base := lockBackoff * sim.Duration(attempt+1)
		if da < base || da >= base+lockBackoff {
			t.Errorf("attempt %d: backoff %v outside [%v, %v)", attempt, da, base, base+lockBackoff)
		}
	}
}
