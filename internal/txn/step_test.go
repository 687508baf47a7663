package txn

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hyperloop/internal/protocol"
	"hyperloop/internal/protocol/protocoltest"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
	"hyperloop/internal/topo"
	"hyperloop/internal/wal"
)

// stepRig is one store over a real group, with the group's InFlight count
// and the member NICs in reach.
type stepRig struct {
	cfg  stepRigConfig
	k    *sim.Kernel
	rack *topo.Rack
	env  protocol.Env // the placed group: client, members, their schedulers
	nics []*rdma.NIC
	g    protocol.Protocol
	st   *Store
}

// stepRigConfig sizes a stepRig; zero fields take the package's test sizes,
// Depth 32 and no timeout.
type stepRigConfig struct {
	naive             bool
	replicas          int
	logSize, dataSize int
	depth             int
	opTimeout         sim.Duration
}

func newStepRig(t testing.TB, c stepRigConfig) *stepRig {
	t.Helper()
	if c.logSize == 0 {
		c.logSize = testLog
	}
	if c.dataSize == 0 {
		c.dataSize = testData
	}
	cores := 0
	if c.naive {
		cores = 4
	}
	rack, err := topo.Build(topo.Spec{Seed: 7, Servers: c.replicas, Cores: cores, DevExtra: 1 << 20}) // rings, staging, metadata
	if err != nil {
		t.Fatal(err)
	}
	env, err := rack.Env(topo.GroupSpec{Servers: topo.FirstServers(c.replicas), Mirror: MirrorSizeFor(c.logSize, c.dataSize)})
	if err != nil {
		t.Fatal(err)
	}
	rig := &stepRig{cfg: c, k: rack.Kernel, rack: rack, env: env, nics: env.Replicas}
	if err := rig.setup(env); err != nil {
		t.Fatal(err)
	}
	return rig
}

// setup builds the rig's group and store over env; called again with the
// survivors (see without), after Close, it is the failover path.
func (r *stepRig) setup(env protocol.Env) error {
	c := r.cfg
	proto := "chain"
	if c.naive {
		proto = "naive"
	}
	var err error
	r.g, err = r.rack.GroupOver(env, protocol.Named(proto), protocol.Params{
		MirrorSize: MirrorSizeFor(c.logSize, c.dataSize), Depth: c.depth, OpTimeout: c.opTimeout,
	})
	if err != nil {
		return err
	}
	r.st, err = New(r.g, Config{LogSize: c.logSize, DataSize: c.dataSize})
	return err
}

// without returns the rig's placement less member victim.
func (r *stepRig) without(victim int) protocol.Env {
	env := r.env
	env.Replicas = slices.Delete(slices.Clone(env.Replicas), victim, victim+1)
	if env.Scheds != nil {
		env.Scheds = slices.Delete(slices.Clone(env.Scheds), victim, victim+1)
	}
	return env
}

// run drives fn on a fiber; fn must use t.Error + return, not t.Fatal.
func (r *stepRig) run(t testing.TB, fn func(f *sim.Fiber)) {
	t.Helper()
	r.k.Spawn("step-test", fn)
	if err := r.k.RunUntil(r.k.Now().Add(30 * sim.Second)); err != nil {
		t.Fatalf("kernel: %v", err)
	}
}

// timed returns how long fn took on the virtual clock.
func timed(f *sim.Fiber, fn func() error) (sim.Duration, error) {
	start := f.Now()
	err := fn()
	return f.Now().Sub(start), err
}

// TestStoreStepLatency pins what the batching buys on a 3-replica chain: a
// step costs about its first op's traversal of the chain, not one
// traversal per op — the lock release behind an execute included — and a
// large image overlaps the hops.
func TestStoreStepLatency(t *testing.T) {
	const mib = 1 << 20
	rig := newStepRig(t, stepRigConfig{replicas: 3, logSize: 64 << 10, dataSize: mib})
	rig.run(t, func(f *sim.Fiber) {
		st, g := rig.st, rig.g
		// The single group ops a step is measured against.
		write1k, err := timed(f, func() error { return g.Write(f, st.dataOff, 1024, true) })
		if err != nil {
			t.Error(err)
			return
		}
		memcpy1k, err := timed(f, func() error { return g.Memcpy(f, st.logOff, st.dataOff, 1024, true) })
		if err != nil {
			t.Error(err)
			return
		}
		write1m, err := timed(f, func() error { return g.Write(f, st.dataOff, mib, true) })
		if err != nil {
			t.Error(err)
			return
		}

		appendStep, err := timed(f, func() error { _, err := st.Append(f, kibEntry()); return err })
		if err != nil {
			t.Error(err)
			return
		}
		execStep, err := timed(f, func() error { _, err := st.ExecuteAndAdvance(f); return err })
		if err != nil {
			t.Error(err)
			return
		}
		if err := st.WrLock(f); err != nil {
			t.Error(err)
			return
		}
		if _, err := st.Append(f, kibEntry()); err != nil {
			t.Error(err)
			return
		}
		execUnlock, err := timed(f, func() error { _, err := st.ExecuteAllAndUnlock(f); return err })
		if err != nil {
			t.Error(err)
			return
		}
		image, err := timed(f, func() error { return st.WriteData(f, 0, make([]byte, mib)) })
		if err != nil {
			t.Error(err)
			return
		}
		t.Logf("gWRITE 1 KiB %v, gMEMCPY 1 KiB %v, gWRITE 1 MiB %v; Append %v, ExecuteAndAdvance %v, ExecuteAllAndUnlock %v, WriteData 1 MiB %v",
			write1k, memcpy1k, write1m, appendStep, execStep, execUnlock, image)
		if limit := write1k * 11 / 10; appendStep > limit {
			t.Errorf("1 KiB Append took %v, want <= 1.1 × one 1 KiB gWRITE (%v)", appendStep, limit)
		}
		if limit := memcpy1k * 11 / 10; execStep > limit {
			t.Errorf("one-entry ExecuteAndAdvance took %v, want <= 1.1 × one gMEMCPY (%v)", execStep, limit)
		}
		if limit := memcpy1k * 11 / 10; execUnlock > limit {
			t.Errorf("one-entry ExecuteAllAndUnlock took %v, want <= 1.1 × one gMEMCPY (%v)", execUnlock, limit)
		}
		if locked, err := st.Locked(); err != nil || locked {
			t.Errorf("ExecuteAllAndUnlock left the store locked (%v, %v)", locked, err)
		}
		if limit := write1m / 2; image > limit {
			t.Errorf("1 MiB WriteData took %v, want <= 0.5 × one 1 MiB gWRITE (%v)", image, limit)
		}
		if n := g.InFlight(); n != 0 {
			t.Errorf("%d ops in flight after the steps", n)
		}
	})
}

// TestAppendFailureIsAtomic: when the tail-pointer write fails, the record
// must not become visible on the client's view — no moved tail, no bytes
// counted by LogUsed, nothing for ExecuteAll to apply — and the next
// Append takes its place.
func TestAppendFailureIsAtomic(t *testing.T) {
	m, st, k := memStore(t)
	runMem(t, k, func(f *sim.Fiber) {
		m.fail = failOn("write", 2) // 1 = the record, 2 = the tail pointer
		if _, err := st.Append(f, []wal.Entry{{Off: 0, Data: []byte("PHANTOM")}}); !errors.Is(err, errInjected) {
			t.Errorf("append = %v, want the injected fault", err)
			return
		}
		m.fail = nil
		if tail, err := st.Tail(); err != nil || tail != 0 {
			t.Errorf("tail = %d (%v) after a failed append, want 0", tail, err)
		}
		if used, err := st.LogUsed(); err != nil || used != 0 {
			t.Errorf("log used = %d (%v) after a failed append, want 0", used, err)
		}
		if n, err := st.ExecuteAll(f); err != nil || n != 0 {
			t.Errorf("ExecuteAll applied %d records (%v), want none", n, err)
		}
		seq, err := st.Append(f, []wal.Entry{{Off: 8, Data: []byte("real")}})
		if err != nil {
			t.Errorf("append after the failure: %v", err)
			return
		}
		if got, err := st.ExecuteAndAdvance(f); err != nil || got != seq {
			t.Errorf("executed seq %d (%v), want %d", got, err, seq)
		}
		if d, _ := st.ViewData(0, 7); string(d) == "PHANTOM" {
			t.Error("the failed append's record was executed")
		}
	})
}

// TestFailedPrepareLeavesNoPhantomRecord drives the same fault through
// 2PC. The aborted transaction's record must not ride the next
// transaction's commit into the data region; and when the rewind cannot be
// acknowledged either, the participant keeps its lock until recovery.
func TestFailedPrepareLeavesNoPhantomRecord(t *testing.T) {
	aborted := func(st *Store) []Participant {
		return []Participant{{Store: st, Entries: []wal.Entry{{Off: 0, Data: []byte("ABORTED")}}}}
	}
	t.Run("rewound", func(t *testing.T) {
		m, st, k := memStore(t)
		cl := memLog(t)
		runMem(t, k, func(f *sim.Fiber) {
			m.fail = failOn("write", 2)
			if err := begin(t, aborted(st), cl).Prepare(f); !errors.Is(err, ErrAborted) || !errors.Is(err, errInjected) {
				t.Errorf("prepare = %v, want ErrAborted wrapping the fault", err)
				return
			}
			m.fail = nil
			mustUnlocked(t, []*Store{st})
			next := begin(t, []Participant{{Store: st, Entries: []wal.Entry{{Off: 64, Data: []byte("next")}}}}, cl)
			if err := next.Prepare(f); err != nil {
				t.Errorf("next prepare: %v", err)
				return
			}
			if err := next.Commit(f); err != nil {
				t.Errorf("next commit: %v", err)
				return
			}
			if d, _ := st.ViewData(0, 7); string(d) == "ABORTED" {
				t.Error("the next transaction's commit applied the aborted transaction's record")
			}
			if d, _ := st.ViewData(64, 4); string(d) != "next" {
				t.Errorf("next transaction's data = %q", d)
			}
		})
	})
	t.Run("rewind fails", func(t *testing.T) {
		m, st, k := memStore(t)
		cl := memLog(t)
		runMem(t, k, func(f *sim.Fiber) {
			writes := 0
			m.fail = func(op string) error { // the record goes out, then the group is gone
				if op == "write" {
					if writes++; writes >= 2 {
						return errInjected
					}
				}
				return nil
			}
			if err := begin(t, aborted(st), cl).Prepare(f); !errors.Is(err, ErrAborted) {
				t.Errorf("prepare = %v, want ErrAborted", err)
				return
			}
			m.fail = nil
			if locked, _ := st.Locked(); !locked {
				t.Error("lock released although no rewind of the tail was acknowledged")
			}
			if rolled, err := RecoverAbort(f, st, 42); err != nil || !rolled {
				t.Errorf("recover = (%v, %v)", rolled, err)
			}
			if used, _ := st.LogUsed(); used != 0 {
				t.Errorf("log used = %d after recovery", used)
			}
			mustUnlocked(t, []*Store{st})
		})
	})
}

// TestRangeChecksDoNotOverflow: an offset near MaxInt must not wrap the
// range check and get a poisoned entry replicated into the log (after which
// every ExecuteAll fails, forever), nor reach the mirror through
// WriteData/ViewData.
func TestRangeChecksDoNotOverflow(t *testing.T) {
	const n = 4
	_, st, k := memStore(t)
	runMem(t, k, func(f *sim.Fiber) {
		for _, off := range []int{-1, math.MaxInt - 1, testData - n + 1} {
			if _, err := st.Append(f, []wal.Entry{{Off: off, Data: make([]byte, n)}}); !errors.Is(err, ErrBadArgument) {
				t.Errorf("Append at %d: %v, want ErrBadArgument", off, err)
			}
			if err := st.WriteData(f, off, make([]byte, n)); !errors.Is(err, ErrBadArgument) {
				t.Errorf("WriteData at %d: %v, want ErrBadArgument", off, err)
			}
			if _, err := st.ViewData(off, n); !errors.Is(err, ErrBadArgument) {
				t.Errorf("ViewData at %d: %v, want ErrBadArgument", off, err)
			}
		}
		if used, _ := st.LogUsed(); used != 0 {
			t.Errorf("log used = %d: a rejected entry was appended", used)
		}
		if _, err := st.Append(f, []wal.Entry{{Off: testData - n, Data: make([]byte, n)}}); err != nil {
			t.Errorf("Append at the last valid offset: %v", err)
		}
		if n, err := st.ExecuteAll(f); err != nil || n != 1 {
			t.Errorf("ExecuteAll = (%d, %v)", n, err)
		}
	})
}

// crashStep is one store step put under a member crash: prepare brings the
// store to the state the step starts from, do is the step, audit checks one
// member's durable image (opened as a store of its own) against the
// per-member prefix rule, and settled checks the retried step's outcome on
// a surviving member.
type crashStep struct {
	name     string
	dataSize int
	prepare  func(f *sim.Fiber, st *Store) error
	do       func(f *sim.Fiber, st *Store) error
	// clientKept reports whether the client's view is what it was before a
	// failed do.
	clientKept func(st *Store) error
	audit      func(f *sim.Fiber, image *Store, acked bool) error
	retry      func(f *sim.Fiber, st *Store) error
	settled    func(image *Store) error
}

// The payloads of the crash tests. imageLen is five chunks.
const imageLen = 4*dataChunk + 1000

var (
	crashA   = bytes.Repeat([]byte("A-entry."), 40)
	crashB   = bytes.Repeat([]byte("B-entry."), 25)
	oldImage = bytes.Repeat([]byte{0x11}, imageLen)
	newImage = func() []byte {
		b := make([]byte, imageLen)
		for i := range b {
			b[i] = byte(0x80 | i%97)
		}
		return b
	}()
)

func expectData(st *Store, off int, want []byte) error {
	got, err := st.ViewData(off, len(want))
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("data region at %d does not hold the %d expected bytes", off, len(want))
	}
	return nil
}

// filler leaves head == tail != 0, so a pointer that moved is told apart
// from one never written.
func filler(f *sim.Fiber, st *Store) error {
	if _, err := st.Append(f, []wal.Entry{{Off: 0, Data: []byte("filler-record")}}); err != nil {
		return err
	}
	_, err := st.ExecuteAll(f)
	return err
}

// The piece AppendData posts behind its record in the crash tests, over
// the old bytes prepare writes there: clear of the entries' offsets.
const pieceOff, pieceLen = 16 << 10, 8 << 10

var (
	oldPiece = bytes.Repeat([]byte{0x22}, pieceLen)
	newPiece = bytes.Repeat([]byte{0x5C}, pieceLen)
)

// behind runs one of the Append forms that post an op behind the step and
// waits for that op too, so the step under a crash is the pair.
func behind(f *sim.Fiber, append func() (uint64, *sim.Signal, error)) error {
	_, sig, err := append()
	if sig != nil {
		if serr := f.Await(sig); err == nil {
			err = serr
		}
	}
	return err
}

// crashSteps builds the six steps. A table remembers, from prepare to the
// audits, where the pointer its step moves stood, so every rig gets a table
// of its own. TestCrashInsideStep seeds each step's crash instants with its
// index, so a new step goes at the end: the others keep their instants.
func crashSteps() []crashStep {
	entries := []wal.Entry{{Off: 100, Data: crashA}, {Off: 2000, Data: crashB}}
	var before, after int // the pointer the step moves: its value before and after
	pending := func(image *Store) error {
		seqs, err := image.PendingSeqs()
		if err != nil || len(seqs) != 1 {
			return fmt.Errorf("pending = %v (%v), want the one record", seqs, err)
		}
		return image.VisitPending(func(_ uint64, got []wal.Entry) error {
			if len(got) != 2 || !bytes.Equal(got[0].Data, crashA) || !bytes.Equal(got[1].Data, crashB) {
				return errors.New("the visible record does not carry the appended entries")
			}
			return nil
		})
	}
	appendData := func(f *sim.Fiber, st *Store) error {
		return behind(f, func() (uint64, *sim.Signal, error) {
			return st.AppendData(f, entries, pieceOff, pieceLen, func(pos, n int) []byte { return newPiece[pos : pos+n] })
		})
	}
	var mid int // append-truncate: the tail the step's head move goes to
	return []crashStep{{
		name: "append",
		prepare: func(f *sim.Fiber, st *Store) error {
			err := filler(f, st)
			before, _ = st.Tail()
			after = before + (&wal.Record{Entries: entries}).EncodedSize()
			return err
		},
		do: func(f *sim.Fiber, st *Store) error { _, err := st.Append(f, entries); return err },
		clientKept: func(st *Store) error {
			if tail, err := st.Tail(); err != nil || tail != before {
				return fmt.Errorf("client tail = %d (%v), want %d", tail, err, before)
			}
			return nil
		},
		audit: func(f *sim.Fiber, image *Store, acked bool) error {
			head, _ := image.Head()
			tail, _ := image.Tail()
			if _, repaired, err := image.RepairLog(f); err != nil || repaired {
				return fmt.Errorf("log needed repair (%v, %v): the tail moved over a record that is not durable", repaired, err)
			}
			switch {
			case head != before:
				return fmt.Errorf("head = %d, want %d", head, before)
			case tail == before && !acked: // absent and invisible
				if used, _ := image.LogUsed(); used != 0 {
					return fmt.Errorf("log used = %d with the tail unmoved", used)
				}
				return nil
			case tail == after: // present and valid
				return pending(image)
			}
			return fmt.Errorf("tail = %d (acked %v), want %d or %d", tail, acked, before, after)
		},
		retry: func(f *sim.Fiber, st *Store) error {
			if _, err := st.Append(f, entries); err != nil {
				return err
			}
			_, err := st.ExecuteAll(f)
			return err
		},
		settled: func(image *Store) error {
			if used, _ := image.LogUsed(); used != 0 {
				return fmt.Errorf("log used = %d after the retry executed", used)
			}
			return errors.Join(expectData(image, 100, crashA), expectData(image, 2000, crashB))
		},
	}, {
		name: "execute",
		prepare: func(f *sim.Fiber, st *Store) error {
			if err := filler(f, st); err != nil {
				return err
			}
			before, _ = st.Head()
			_, err := st.Append(f, entries)
			after, _ = st.Tail()
			return err
		},
		do: func(f *sim.Fiber, st *Store) error { _, err := st.ExecuteAndAdvance(f); return err },
		clientKept: func(st *Store) error {
			if head, err := st.Head(); err != nil || head != before {
				return fmt.Errorf("client head = %d (%v), want %d", head, err, before)
			}
			return nil
		},
		audit: func(f *sim.Fiber, image *Store, acked bool) error {
			head, _ := image.Head()
			tail, _ := image.Tail()
			switch {
			case tail != after:
				return fmt.Errorf("tail = %d, want %d", tail, after)
			case head == before && !acked: // not executed as far as this member knows
				return pending(image)
			case head == after: // head moved ⇒ data region durable
				return errors.Join(expectData(image, 100, crashA), expectData(image, 2000, crashB))
			}
			return fmt.Errorf("head = %d (acked %v), want %d or %d", head, acked, before, after)
		},
		retry: func(f *sim.Fiber, st *Store) error { _, err := st.ExecuteAll(f); return err },
		settled: func(image *Store) error {
			if used, _ := image.LogUsed(); used != 0 {
				return fmt.Errorf("log used = %d after the retry executed", used)
			}
			return errors.Join(expectData(image, 100, crashA), expectData(image, 2000, crashB))
		},
	}, {
		name:       "writedata",
		dataSize:   512 << 10,
		prepare:    func(f *sim.Fiber, st *Store) error { return st.WriteData(f, 0, oldImage) },
		do:         func(f *sim.Fiber, st *Store) error { return st.WriteData(f, 0, newImage) },
		clientKept: func(*Store) error { return nil },
		audit: func(f *sim.Fiber, image *Store, acked bool) error {
			got, err := image.ViewData(0, imageLen)
			if err != nil {
				return err
			}
			// Chunks land in order: a new chunk implies every earlier one is
			// new, and each is durable whole or not at all.
			stale := -1
			for c := 0; c*dataChunk < imageLen; c++ {
				lo, hi := c*dataChunk, min((c+1)*dataChunk, imageLen)
				switch {
				case bytes.Equal(got[lo:hi], newImage[lo:hi]):
					if stale >= 0 {
						return fmt.Errorf("chunk %d is durable but chunk %d before it is not", c, stale)
					}
				case bytes.Equal(got[lo:hi], oldImage[lo:hi]):
					if stale < 0 {
						stale = c
					}
				default:
					return fmt.Errorf("chunk %d is torn", c)
				}
			}
			if acked && stale >= 0 {
				return fmt.Errorf("acknowledged image lacks chunk %d", stale)
			}
			return nil
		},
		retry:   func(f *sim.Fiber, st *Store) error { return st.WriteData(f, 0, newImage) },
		settled: func(image *Store) error { return expectData(image, 0, newImage) },
	}, {
		name: "execute-unlock",
		prepare: func(f *sim.Fiber, st *Store) error {
			if err := filler(f, st); err != nil {
				return err
			}
			if err := st.WrLock(f); err != nil {
				return err
			}
			before, _ = st.Head()
			_, err := st.Append(f, entries)
			after, _ = st.Tail()
			return err
		},
		do: func(f *sim.Fiber, st *Store) error { _, err := st.ExecuteAllAndUnlock(f); return err },
		clientKept: func(st *Store) error {
			if head, err := st.Head(); err != nil || head != before {
				return fmt.Errorf("client head = %d (%v), want %d", head, err, before)
			}
			if locked, err := st.Locked(); err != nil || !locked {
				return fmt.Errorf("client lock word is free (%v): the failed step let go of a lock some member may still hold", err)
			}
			return nil
		},
		audit: func(f *sim.Fiber, image *Store, acked bool) error {
			head, _ := image.Head()
			tail, _ := image.Tail()
			locked, _ := image.Locked()
			switch {
			case tail != after:
				return fmt.Errorf("tail = %d, want %d", tail, after)
			case !locked && head != after: // released ⇒ head advanced
				return fmt.Errorf("lock released with head = %d, want %d", head, after)
			case acked && locked:
				return errors.New("acknowledged step left the member locked")
			case head == before && !acked:
				return pending(image)
			case head == after: // head moved ⇒ data region durable
				return errors.Join(expectData(image, 100, crashA), expectData(image, 2000, crashB))
			}
			return fmt.Errorf("head = %d (acked %v), want %d or %d", head, acked, before, after)
		},
		retry: func(f *sim.Fiber, st *Store) error {
			// Recover executed what was pending; the lock is still the
			// client's unless the step got through before the crash bit.
			if locked, err := st.Locked(); err != nil || !locked {
				return err
			}
			_, err := st.ExecuteAllAndUnlock(f)
			return err
		},
		settled: func(image *Store) error {
			if used, _ := image.LogUsed(); used != 0 {
				return fmt.Errorf("log used = %d after the retry executed", used)
			}
			if locked, _ := image.Locked(); locked {
				return errors.New("member still locked after the retried release")
			}
			return errors.Join(expectData(image, 100, crashA), expectData(image, 2000, crashB))
		},
	}, {
		name: "append-data",
		prepare: func(f *sim.Fiber, st *Store) error {
			if err := filler(f, st); err != nil {
				return err
			}
			before, _ = st.Tail()
			after = before + (&wal.Record{Entries: entries}).EncodedSize()
			return st.WriteData(f, pieceOff, oldPiece)
		},
		do: appendData,
		// The Append failed, or only the piece behind it did.
		clientKept: func(st *Store) error {
			if tail, err := st.Tail(); err != nil || (tail != before && tail != after) {
				return fmt.Errorf("client tail = %d (%v), want %d or %d", tail, err, before, after)
			}
			return nil
		},
		// A failed Append asks the members to take the tail back, so a
		// member may hold the piece behind a record it then dropped.
		audit: func(f *sim.Fiber, image *Store, acked bool) error {
			tail, _ := image.Tail()
			piece, err := image.ViewData(pieceOff, pieceLen)
			if err != nil {
				return err
			}
			fresh := bytes.Equal(piece, newPiece)
			switch {
			case !fresh && !bytes.Equal(piece, oldPiece):
				return errors.New("the piece is torn")
			case acked && (!fresh || tail != after):
				return fmt.Errorf("acknowledged: piece durable %v, tail %d, want %d", fresh, tail, after)
			case tail == after:
				return pending(image)
			case tail != before:
				return fmt.Errorf("tail = %d, want %d or %d", tail, before, after)
			}
			return nil
		},
		retry: func(f *sim.Fiber, st *Store) error {
			if err := appendData(f, st); err != nil {
				return err
			}
			_, err := st.ExecuteAll(f)
			return err
		},
		settled: func(image *Store) error {
			if used, _ := image.LogUsed(); used != 0 {
				return fmt.Errorf("log used = %d after the retry executed", used)
			}
			return errors.Join(expectData(image, 100, crashA), expectData(image, 2000, crashB), expectData(image, pieceOff, newPiece))
		},
	}, {
		name: "append-truncate",
		prepare: func(f *sim.Fiber, st *Store) error {
			if err := filler(f, st); err != nil {
				return err
			}
			before, _ = st.Head()
			_, err := st.Append(f, entries)
			mid, _ = st.Tail()
			after = mid + (&wal.Record{Entries: entries}).EncodedSize()
			return err
		},
		do: func(f *sim.Fiber, st *Store) error {
			return behind(f, func() (uint64, *sim.Signal, error) { return st.AppendTruncate(f, entries, mid) })
		},
		// The Append failed, both pointers put back, or only the move behind
		// it did.
		clientKept: func(st *Store) error {
			head, _ := st.Head()
			tail, err := st.Tail()
			if err != nil || (head != before || tail != mid) && (head != mid || tail != after) {
				return fmt.Errorf("client head, tail = %d, %d (%v), want %d, %d or %d, %d", head, tail, err, before, mid, mid, after)
			}
			return nil
		},
		audit: func(f *sim.Fiber, image *Store, acked bool) error {
			head, _ := image.Head()
			tail, _ := image.Tail()
			switch {
			case head != before && head != mid:
				return fmt.Errorf("head = %d, want %d or %d", head, before, mid)
			case tail != mid && tail != after:
				return fmt.Errorf("tail = %d, want %d or %d", tail, mid, after)
			case acked && (head != mid || tail != after):
				return fmt.Errorf("acknowledged: head, tail = %d, %d, want %d, %d", head, tail, mid, after)
			}
			return nil
		},
		retry: func(f *sim.Fiber, st *Store) error { _, err := st.ExecuteAll(f); return err },
		settled: func(image *Store) error {
			if used, _ := image.LogUsed(); used != 0 {
				return fmt.Errorf("log used = %d after the retry executed", used)
			}
			return nil
		},
	}}
}

// durableImage opens a member's durable mirror image — what it would come
// back with after a power loss — as a store of its own. The lock word is
// the exception: a gCAS is not flushed, the lock is state of the running
// member, so the image carries the member's live word.
func (r *stepRig) durableImage(nic *rdma.NIC) (*Store, error) {
	m := newMemRep(MirrorSizeFor(r.cfg.logSize, r.cfg.dataSize))
	if err := nic.Memory().ReadDurable(0, m.buf); err != nil {
		return nil, err
	}
	if err := nic.Memory().Read(ctrlWrLock, m.buf[ctrlWrLock:ctrlWrLock+8]); err != nil {
		return nil, err
	}
	return New(m, Config{LogSize: r.cfg.logSize, DataSize: r.cfg.dataSize})
}

// auditImages checks the durable image of every member but the victim.
func (r *stepRig) auditImages(f *sim.Fiber, victim int, when string, audit func(*Store) error) error {
	var errs []error
	for m, nic := range r.nics {
		if m == victim {
			continue
		}
		image, err := r.durableImage(nic)
		if err == nil {
			err = audit(image)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("member %d's durable image %s: %w", m+1, when, err))
		}
	}
	return errors.Join(errs...)
}

// TestCrashInsideStep crashes each member of 3-replica chain and naive
// groups at seeded instants across each pipelined step. Whatever the
// instant, every surviving member's durable image must be one a
// one-op-at-a-time issue could have left there — the record absent and
// invisible or present and valid, the data region consistent with the head,
// image chunks a prefix, a released lock word only over an advanced head —
// the step must leave nothing in flight and the client's view (log pointers
// and lock word) unmoved when it failed, and after failing over to the
// survivors the retried step succeeds everywhere.
func TestCrashInsideStep(t *testing.T) {
	const instants = 16
	for _, naive := range []bool{false, true} {
		backend := map[bool]string{false: "chain", true: "naive"}[naive]
		for si, step := range crashSteps() {
			cfg := stepRigConfig{naive: naive, replicas: 3, dataSize: step.dataSize, opTimeout: 5 * sim.Millisecond}
			// How long the step takes when nothing fails: the window the
			// crash instants are drawn from.
			var healthy sim.Duration
			ref := newStepRig(t, cfg)
			ref.run(t, func(f *sim.Fiber) {
				err := step.prepare(f, ref.st)
				if err == nil {
					healthy, err = timed(f, func() error { return step.do(f, ref.st) })
				}
				if err != nil {
					t.Errorf("%s/%s healthy run: %v", backend, step.name, err)
				}
			})
			if t.Failed() {
				return
			}
			rng := rand.New(rand.NewSource(int64(20261002 + si)))
			for victim := 0; victim < 3; victim++ {
				for i := 0; i < instants; i++ {
					at := sim.Duration(rng.Int63n(int64(healthy)))
					t.Run(fmt.Sprintf("%s/%s/member%d/at%v", backend, step.name, victim+1, at), func(t *testing.T) {
						crashInsideStep(t, cfg, crashSteps()[si], victim, at)
					})
				}
			}
		}
	}
}

func crashInsideStep(t *testing.T, cfg stepRigConfig, step crashStep, victim int, at sim.Duration) {
	rig := newStepRig(t, cfg)
	rig.run(t, func(f *sim.Fiber) {
		if err := step.prepare(f, rig.st); err != nil {
			t.Errorf("prepare: %v", err)
			return
		}
		inFlight := rig.g.InFlight()
		f.Kernel().AfterFunc(at, func() { rig.nics[victim].SetDown(true) }, nil)
		// The images are audited twice: a while after the crash, with the
		// stream wedged and the step (unless it got through) still waiting
		// for its timeout, and once the step has returned — by when a failed
		// Append has asked the members it still reaches to take the tail back.
		var wedged error
		f.Kernel().AfterFunc(at+cfg.opTimeout/4, func() {
			wedged = rig.auditImages(f, victim, "with the step wedged", func(image *Store) error {
				return step.audit(f, image, false)
			})
		}, nil)
		stepErr := step.do(f, rig.st)
		if got := rig.g.InFlight(); got != inFlight {
			t.Errorf("%d ops in flight after the step (%v), %d before it", got, stepErr, inFlight)
		}
		if stepErr != nil {
			if !errors.Is(stepErr, protocol.ErrTimeout) {
				t.Errorf("step failed with %v, want a timeout", stepErr)
			}
			if err := step.clientKept(rig.st); err != nil {
				t.Errorf("after the failed step: %v", err)
			}
		}
		f.Sleep(cfg.opTimeout) // past the first audit, whenever the step returned
		if wedged != nil {
			t.Error(wedged)
		}
		if err := rig.auditImages(f, victim, fmt.Sprintf("after the step returned %v", stepErr), func(image *Store) error {
			return step.audit(f, image, stepErr == nil)
		}); err != nil {
			t.Error(err)
		}
		if t.Failed() {
			return
		}
		// Fail over to the survivors; the client's mirror is the authority.
		rig.g.Close()
		if err := rig.setup(rig.without(victim)); err != nil {
			t.Errorf("failover: %v", err)
			return
		}
		if _, err := rig.st.Recover(f); err != nil {
			t.Errorf("recover: %v", err)
			return
		}
		if err := step.retry(f, rig.st); err != nil {
			t.Errorf("retried step: %v", err)
			return
		}
		if err := rig.auditImages(f, victim, "after the retry", step.settled); err != nil {
			t.Error(err)
		}
	})
}

// TestStepRespectsWindow: a step with more ops than the group's window
// (Depth-2) waits for its oldest op and posts on instead of failing, and
// leaves nothing in flight.
func TestStepRespectsWindow(t *testing.T) {
	const entries = 40
	for _, depth := range []int{32, 4} {
		t.Run(fmt.Sprintf("execute %d entries/depth %d", entries, depth), func(t *testing.T) {
			rig := newStepRig(t, stepRigConfig{replicas: 2, depth: depth})
			rig.run(t, func(f *sim.Fiber) {
				var rec []wal.Entry
				for i := 0; i < entries; i++ {
					rec = append(rec, wal.Entry{Off: 64 * i, Data: []byte(fmt.Sprintf("entry-%02d", i))})
				}
				if _, err := rig.st.Append(f, rec); err != nil {
					t.Errorf("append: %v", err)
					return
				}
				if _, err := rig.st.ExecuteAndAdvance(f); err != nil {
					t.Errorf("execute: %v", err)
					return
				}
				if n := rig.g.InFlight(); n != 0 {
					t.Errorf("%d ops in flight after the step", n)
				}
				err := rig.auditImages(f, -1, "after the step", func(image *Store) error {
					for i := 0; i < entries; i++ {
						if err := expectData(image, 64*i, rec[i].Data); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					t.Error(err)
				}
			})
		})
	}
	t.Run("wrapping append/depth 4", func(t *testing.T) {
		rig := newStepRig(t, stepRigConfig{replicas: 2, depth: 4})
		rig.run(t, func(f *sim.Fiber) {
			// Fill and drain until the next record no longer fits before the
			// end of the ring: that append is pad + record + tail pointer,
			// three ops against a window of two.
			payload := bytes.Repeat([]byte{0xAB}, 500)
			size := (&wal.Record{Entries: []wal.Entry{{Data: payload}}}).EncodedSize()
			for wrapped := false; !wrapped; {
				tail, _ := rig.st.Tail()
				_, pad, _, _ := wal.Place(testLog, tail, tail, size)
				wrapped = pad > 0
				if _, err := rig.st.Append(f, []wal.Entry{{Off: 0, Data: payload}}); err != nil {
					t.Errorf("append at tail %d: %v", tail, err)
					return
				}
				if tail2, _ := rig.st.Tail(); wrapped && tail2 != size {
					t.Errorf("tail = %d after the wrapping append, want %d", tail2, size)
				}
				if n := rig.g.InFlight(); n != 0 {
					t.Errorf("%d ops in flight after an append", n)
					return
				}
				if _, err := rig.st.ExecuteAll(f); err != nil {
					t.Errorf("execute: %v", err)
					return
				}
			}
		})
	})
}

// lateRep completes posted ops late and on command: the *Async forms only
// record the op, and the blocking Write that ends a step returns first and
// then has the earlier ops' signals fire one by one, the first with
// firstErr — after everything behind it was posted and acknowledged.
type lateRep struct {
	*memRep
	k        *sim.Kernel
	firstErr error
	posted   []*sim.Signal
	inFlight int
}

func (r *lateRep) post() (*sim.Signal, error) {
	sig := sim.NewSignal()
	r.posted = append(r.posted, sig)
	r.inFlight++
	return sig, nil
}

func (r *lateRep) WriteAsync(off, size int, durable bool) (*sim.Signal, error) { return r.post() }

func (r *lateRep) MemcpyAsync(src, dst, size int, durable bool) (*sim.Signal, error) {
	copy(r.buf[dst:dst+size], r.buf[src:src+size])
	return r.post()
}

func (r *lateRep) Write(f *sim.Fiber, off, size int, durable bool) error {
	for i, sig := range r.posted {
		var err error
		if i == 0 {
			err = r.firstErr
		}
		r.k.AfterFunc(sim.Duration(i+1)*sim.Microsecond, func() { r.inFlight--; sig.Fire(err) }, nil)
	}
	r.posted = nil
	return nil
}

// TestStepReturnsFirstErrorInIssueOrder: an early op of a step fails after
// the ops behind it were posted and succeeded. The step must wait for
// every op, return that error, and leave the client's view of the log where
// it was.
func TestStepReturnsFirstErrorInIssueOrder(t *testing.T) {
	k := sim.NewKernel(3)
	r := &lateRep{memRep: newMemRep(MirrorSizeFor(testLog, testData)), k: k}
	st, err := New(r, Config{LogSize: testLog, DataSize: testData})
	if err != nil {
		t.Fatal(err)
	}
	runMem(t, k, func(f *sim.Fiber) {
		entries := []wal.Entry{{Off: 0, Data: []byte("one")}, {Off: 8, Data: []byte("two")}}
		if _, err := st.Append(f, entries); err != nil {
			t.Errorf("healthy append: %v", err)
			return
		}
		tail, _ := st.Tail()

		r.firstErr = errInjected
		if _, err := st.Append(f, entries); !errors.Is(err, errInjected) {
			t.Errorf("append = %v, want the first op's error", err)
		}
		if got, _ := st.Tail(); got != tail {
			t.Errorf("tail = %d after the failed append, want %d", got, tail)
		}
		if r.inFlight != 0 {
			t.Errorf("%d ops in flight after the failed append", r.inFlight)
		}

		head, _ := st.Head()
		if _, err := st.ExecuteAndAdvance(f); !errors.Is(err, errInjected) {
			t.Errorf("execute = %v, want the first op's error", err)
		}
		if got, _ := st.Head(); got != head {
			t.Errorf("head = %d after the failed execute, want %d", got, head)
		}
		if r.inFlight != 0 {
			t.Errorf("%d ops in flight after the failed execute", r.inFlight)
		}

		r.firstErr = nil
		if n, err := st.ExecuteAll(f); err != nil || n != 1 {
			t.Errorf("retried execute = (%d, %v), want the one record", n, err)
		}
		if err := expectData(st, 8, []byte("two")); err != nil {
			t.Error(err)
		}
	})
}

// BenchmarkStoreAppend measures one 1 KiB Append per iteration on a
// 3-replica chain: virt-us/op is the step's virtual latency, allocs/op and
// ns/op its host cost. The log is drained, untimed, whenever it fills.
func BenchmarkStoreAppend(b *testing.B) {
	rig := newStepRig(b, stepRigConfig{replicas: 3, logSize: benchLog})
	entry := kibEntry()
	b.ReportAllocs()
	rig.run(b, func(f *sim.Fiber) {
		var virt sim.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d, err := timed(f, func() error { _, err := rig.st.Append(f, entry); return err })
			if errors.Is(err, ErrLogFull) {
				b.StopTimer()
				tail, terr := rig.st.Tail()
				if terr == nil {
					terr = rig.st.TruncateTo(f, tail)
				}
				if terr != nil {
					b.Error(terr)
					return
				}
				b.StartTimer()
				d, err = timed(f, func() error { _, err := rig.st.Append(f, entry); return err })
			}
			if err != nil {
				b.Error(err)
				return
			}
			virt += d
		}
		b.StopTimer()
		b.ReportMetric(float64(virt)/1e3/float64(b.N), "virt-us/op")
	})
}

// BenchmarkStoreExecute measures one one-entry (1 KiB) ExecuteAndAdvance
// per iteration on a 3-replica chain; the append that feeds it is untimed.
func BenchmarkStoreExecute(b *testing.B) {
	rig := newStepRig(b, stepRigConfig{replicas: 3, logSize: benchLog})
	entry := kibEntry()
	b.ReportAllocs()
	rig.run(b, func(f *sim.Fiber) {
		var virt sim.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if _, err := rig.st.Append(f, entry); err != nil {
				b.Error(err)
				return
			}
			b.StartTimer()
			d, err := timed(f, func() error { _, err := rig.st.ExecuteAndAdvance(f); return err })
			if err != nil {
				b.Error(err)
				return
			}
			virt += d
		}
		b.StopTimer()
		b.ReportMetric(float64(virt)/1e3/float64(b.N), "virt-us/op")
	})
}

// BenchmarkStoreExecuteUnlock measures one one-entry (1 KiB)
// ExecuteAllAndUnlock per iteration on a 3-replica chain; the lock and the
// append that feed it are untimed.
func BenchmarkStoreExecuteUnlock(b *testing.B) {
	rig := newStepRig(b, stepRigConfig{replicas: 3, logSize: benchLog})
	entry := kibEntry()
	b.ReportAllocs()
	rig.run(b, func(f *sim.Fiber) {
		var virt sim.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			err := rig.st.WrLock(f)
			if err == nil {
				_, err = rig.st.Append(f, entry)
			}
			if err != nil {
				b.Error(err)
				return
			}
			b.StartTimer()
			d, err := timed(f, func() error { _, err := rig.st.ExecuteAllAndUnlock(f); return err })
			if err != nil {
				b.Error(err)
				return
			}
			virt += d
		}
		b.StopTimer()
		b.ReportMetric(float64(virt)/1e3/float64(b.N), "virt-us/op")
	})
}

// TestStopGroupGatesPosts: the posting forms draw on the same budget as the
// blocking ones, so a crash sweep freezes a pipelined step at the op
// boundary it names — here an Append after its record, before its tail.
func TestStopGroupGatesPosts(t *testing.T) {
	rig := newTwoPCRig(t, 1, nil, 0)
	st, stop, g := rig.stores[0], rig.stops[0], rig.groups[0]
	rig.run(t, func(f *sim.Fiber) {
		issued, _ := g.Stats()
		stop.Budget = 1
		if _, err := st.Append(f, []wal.Entry{{Off: 0, Data: []byte("half")}}); !errors.Is(err, protocoltest.ErrStopped) {
			t.Errorf("append = %v, want ErrStopped", err)
		}
		if now, _ := g.Stats(); now != issued+1 {
			t.Errorf("%d ops reached the group, want the record's gWRITE alone", now-issued)
		}
		if _, err := stop.MemcpyAsync(0, 8, 8, true); !errors.Is(err, protocoltest.ErrStopped) {
			t.Errorf("MemcpyAsync past the budget = %v, want ErrStopped", err)
		}
		if n := g.InFlight(); n != 0 {
			t.Errorf("%d ops in flight after the stopped append", n)
		}
		if tail, _ := st.Tail(); tail != 0 {
			t.Errorf("tail = %d: the stopped append moved it", tail)
		}
		stop.Budget = -1
		if _, err := st.Append(f, []wal.Entry{{Off: 0, Data: []byte("whole")}}); err != nil {
			t.Errorf("append with the budget lifted: %v", err)
		}
	})
}

// TestStoreStepSteadyStateAllocs: once the log ring has wrapped, an Append
// and the ExecuteAndAdvance that applies it allocate nothing — the Store
// encodes and decodes the record in buffers it keeps, reads the log in
// place, the group recycles its per-op state by window slot and the chain
// its re-arm tasks and receive lists. A record larger than a 4 KiB nvm
// page straddles one every time and is read through the device's one
// assembly buffer. (AllocsPerRun truncates the mean, so a path that
// allocates on only some runs must be taken on every one.)
func TestStoreStepSteadyStateAllocs(t *testing.T) {
	for _, c := range []struct {
		name    string
		logSize int
		entry   []wal.Entry
	}{
		{"1KiB", 0, kibEntry()},
		{"page-straddling", 16 << 10, []wal.Entry{{Off: 0, Data: make([]byte, 4200)}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			rig := newStepRig(t, stepRigConfig{replicas: 3, logSize: c.logSize})
			var err error
			step := func(f *sim.Fiber) {
				if _, e := rig.st.Append(f, c.entry); e != nil && err == nil {
					err = e
				}
				if _, e := rig.st.ExecuteAndAdvance(f); e != nil && err == nil {
					err = e
				}
			}
			rig.run(t, func(f *sim.Fiber) {
				// Warm up past every window of the kernel's timing wheel, so its
				// event pool and heaps have peaked, and many trips round the log ring.
				for f.Now() < sim.Time(40*sim.Millisecond) {
					step(f)
				}
				allocs := testing.AllocsPerRun(100, func() { step(f) })
				if err != nil {
					t.Error(err)
				}
				if allocs != 0 {
					t.Errorf("Append + ExecuteAndAdvance: %v allocations, want 0", allocs)
				}
			})
		})
	}
}
