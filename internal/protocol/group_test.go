package protocol

import (
	"errors"
	"fmt"
	"testing"

	"hyperloop/internal/nvm"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
)

const (
	testMirror = 4096
	testDepth  = 8
	testGroup  = 3
)

// fakePath is a datapath with no wires: it records what Group transmits
// and acks only when the test says so.
type fakePath struct {
	g       *Group
	sent    []uint64 // seqs handed to Transmit, in order
	kinds   []OpKind
	fail    error // returned by the next Transmit
	autoAck bool  // ack every op one microsecond after it is transmitted
	k       *sim.Kernel
}

func (p *fakePath) Transmit(seq uint64, kind OpKind, op Op) error {
	if p.fail != nil {
		err := p.fail
		p.fail = nil
		return err
	}
	p.sent = append(p.sent, seq)
	p.kinds = append(p.kinds, kind)
	if p.autoAck {
		p.k.After(sim.Microsecond, func() { p.g.Complete(seq, []uint64{7, 8, 9}) })
	}
	return nil
}

func newFake(t *testing.T, timeout sim.Duration, retries int, backoff sim.Duration) (*sim.Kernel, *Group, *fakePath) {
	t.Helper()
	k := sim.NewKernel(1)
	env := Env{Fabric: rdma.NewFabric(k, rdma.DefaultConfig())}
	addNIC := func(name string, size int) *rdma.NIC {
		nic, err := env.Fabric.AddNIC(name, nvm.NewDevice(name, size))
		if err != nil {
			t.Fatal(err)
		}
		return nic
	}
	env.Client = addNIC("client", testMirror+1024)
	for i := 0; i < testGroup; i++ {
		env.Replicas = append(env.Replicas, addNIC(fmt.Sprintf("r%d", i), testMirror))
	}
	p := &fakePath{k: k}
	p.g = NewGroup(env, Params{
		MirrorSize: testMirror, Depth: testDepth,
		OpTimeout: timeout, MaxRetries: retries, RetryBackoff: backoff,
	}, p)
	return k, p.g, p
}

// run spawns fn as a fiber and runs the kernel dry.
func run(t *testing.T, k *sim.Kernel, fn func(f *sim.Fiber)) {
	t.Helper()
	k.Spawn("test", fn)
	if err := k.Run(); err != nil {
		t.Fatalf("kernel run: %v", err)
	}
}

func TestWindowIsDepthMinusTwo(t *testing.T) {
	_, g, p := newFake(t, 0, 0, 0)
	for i := 0; i < testDepth-2; i++ {
		if _, err := g.WriteAsync(0, 8, false); err != nil {
			t.Fatalf("write %d inside the window: %v", i, err)
		}
	}
	if _, err := g.WriteAsync(0, 8, false); err != ErrTooManyInFlight {
		t.Fatalf("write past the window: got %v, want ErrTooManyInFlight", err)
	}
	if g.InFlight() != testDepth-2 {
		t.Fatalf("InFlight = %d, want %d", g.InFlight(), testDepth-2)
	}
	g.Complete(p.sent[0], nil)
	if _, err := g.FlushAsync(0, 8); err != nil {
		t.Fatalf("issue after one completion: %v", err)
	}
	if issued, completed := g.Stats(); issued != testDepth-1 || completed != 1 {
		t.Fatalf("Stats = %d/%d, want %d/1", issued, completed, testDepth-1)
	}
}

func TestBadArgumentsConsumeNothing(t *testing.T) {
	_, g, p := newFake(t, 0, 0, 0)
	maxInt := int(^uint(0) >> 1)
	exec := make([]bool, testGroup)
	cases := map[string]func() error{
		"write negative size":  func() error { _, err := g.WriteAsync(16, -8, false); return err },
		"write negative off":   func() error { _, err := g.WriteAsync(-8, 8, false); return err },
		"write past end":       func() error { _, err := g.WriteAsync(testMirror-4, 8, false); return err },
		"write overflowing":    func() error { _, err := g.WriteAsync(8, maxInt, false); return err },
		"flush negative size":  func() error { _, err := g.FlushAsync(0, -1); return err },
		"memcpy negative src":  func() error { _, err := g.MemcpyAsync(-8, 0, 8, false); return err },
		"memcpy negative dst":  func() error { _, err := g.MemcpyAsync(0, -8, 8, false); return err },
		"memcpy negative size": func() error { _, err := g.MemcpyAsync(64, 0, -8, true); return err },
		"memcpy dst past end":  func() error { _, err := g.MemcpyAsync(0, testMirror-4, 8, false); return err },
		"cas past end":         func() error { _, err := g.CAS(nil, testMirror-4, 0, 1, exec); return err },
		"cas short exec map":   func() error { _, err := g.CAS(nil, 0, 0, 1, exec[:2]); return err },
		"read negative length": func() error { _, err := g.ViewLocal(0, -1); return err },
		"read past end":        func() error { _, err := g.ViewLocal(testMirror-4, 8); return err },
		"local write past end": func() error { return g.WriteLocal(testMirror-4, make([]byte, 8)) },
		"local write negative": func() error { return g.WriteLocal(-1, make([]byte, 8)) },
	}
	for name, call := range cases {
		if err := call(); !errors.Is(err, ErrBadArgument) {
			t.Errorf("%s: got %v, want ErrBadArgument", name, err)
		}
	}
	if issued, _ := g.Stats(); g.InFlight() != 0 || issued != 0 || len(p.sent) != 0 {
		t.Fatalf("rejected ops left state behind: in flight %d, issued %d, transmitted %d",
			g.InFlight(), issued, len(p.sent))
	}
	if _, err := g.WriteAsync(0, 8, false); err != nil || p.sent[0] != 0 {
		t.Fatalf("first valid op: err %v, seqs %v; rejected ops must not consume sequence numbers", err, p.sent)
	}
}

func TestTransmitErrorAbortsAndFreesSlot(t *testing.T) {
	k, g, p := newFake(t, 50*sim.Microsecond, 0, 0)
	boom := errors.New("ring full")
	p.fail = boom
	if _, err := g.WriteAsync(0, 8, true); !errors.Is(err, boom) {
		t.Fatalf("got %v, want the transmit error", err)
	}
	if issued, _ := g.Stats(); g.InFlight() != 0 || issued != 0 {
		t.Fatalf("failed transmit leaked: in flight %d, issued %d", g.InFlight(), issued)
	}
	if k.Pending() != 0 {
		t.Fatalf("aborted op left %d kernel events (its timeout timer) behind", k.Pending())
	}
	// A local-apply failure takes the same exit; a device shorter than the
	// mirror is the only way past validation to one.
	g.mirror = nvm.NewDevice("short", 16)
	if _, err := g.MemcpyAsync(0, 64, 8, false); err == nil || g.InFlight() != 0 {
		t.Fatalf("local apply failure: err %v, in flight %d", err, g.InFlight())
	}
}

func TestTimeoutRetriesWithLinearBackoff(t *testing.T) {
	const timeout, backoff = 100 * sim.Microsecond, 10 * sim.Microsecond
	k, g, p := newFake(t, timeout, 2, backoff)
	var err error
	var took sim.Duration
	run(t, k, func(f *sim.Fiber) {
		start := f.Now()
		err = g.Write(f, 0, 8, false)
		took = f.Now().Sub(start)
	})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v, want timeout after the retry budget", err)
	}
	if len(p.sent) != 3 || p.sent[0] == p.sent[1] || p.sent[1] == p.sent[2] {
		t.Fatalf("attempts used seqs %v, want three fresh ones", p.sent)
	}
	if g.Retried() != 2 {
		t.Fatalf("Retried = %d, want 2", g.Retried())
	}
	if want := 3*timeout + backoff + 2*backoff; took != want {
		t.Fatalf("took %v, want %v (three timeouts, backoff 1× then 2×)", took, want)
	}
	if issued, completed := g.Stats(); issued != 3 || completed != 0 || g.InFlight() != 0 {
		t.Fatalf("Stats = %d/%d, in flight %d", issued, completed, g.InFlight())
	}
}

func TestRetrySucceedsOnSecondAttempt(t *testing.T) {
	k, g, p := newFake(t, 100*sim.Microsecond, 1, 0)
	var err error
	run(t, k, func(f *sim.Fiber) {
		k.After(150*sim.Microsecond, func() { g.Complete(p.sent[1], nil) })
		err = g.Memcpy(f, 0, 64, 8, true)
	})
	if err != nil || g.Retried() != 1 || len(p.sent) != 2 {
		t.Fatalf("err %v, retried %d, attempts %d; want success on the second attempt", err, g.Retried(), len(p.sent))
	}
}

func TestCASNeverRetriedAndCopiesResults(t *testing.T) {
	k, g, p := newFake(t, 100*sim.Microsecond, 3, 0)
	exec := []bool{true, true, true}
	var err error
	run(t, k, func(f *sim.Fiber) { _, err = g.CAS(f, 0, 0, 1, exec) })
	if !errors.Is(err, ErrTimeout) || len(p.sent) != 1 || g.Retried() != 0 {
		t.Fatalf("err %v, attempts %d, retried %d; gCAS must time out once", err, len(p.sent), g.Retried())
	}

	scratch := []uint64{5, 0, 5}
	var got []uint64
	run(t, k, func(f *sim.Fiber) {
		k.After(sim.Microsecond, func() {
			g.Complete(p.sent[1], scratch)
			scratch[0] = 99 // the strategy reuses its buffer
		})
		got, err = g.CAS(f, 8, 5, 6, exec)
	})
	if err != nil || len(got) != 3 || got[0] != 5 || got[2] != 5 {
		t.Fatalf("CAS = %v, %v; want a private copy of [5 0 5]", got, err)
	}
}

func TestLateAckAfterTimeoutIgnored(t *testing.T) {
	k, g, p := newFake(t, 100*sim.Microsecond, 0, 0)
	var err error
	run(t, k, func(f *sim.Fiber) { err = g.Flush(f, 0, 64) })
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v, want timeout", err)
	}
	g.Complete(p.sent[0], nil)
	g.Complete(12345, nil) // never issued
	if _, completed := g.Stats(); completed != 0 || g.InFlight() != 0 {
		t.Fatalf("late ack counted: completed %d, in flight %d", completed, g.InFlight())
	}
}

func TestAckStopsTimer(t *testing.T) {
	k, g, p := newFake(t, 100*sim.Microsecond, 0, 0)
	p.autoAck = true
	var err error
	run(t, k, func(f *sim.Fiber) { err = g.Write(f, 0, 8, true) })
	if err != nil || k.Now() != sim.Time(sim.Microsecond) {
		t.Fatalf("err %v at %v; a completed op must not keep its timeout pending", err, k.Now())
	}
	if p.kinds[0] != KindWrite {
		t.Fatalf("transmitted kind %v", p.kinds[0])
	}
}

func TestLocalMirrorAccessAndApply(t *testing.T) {
	_, g, _ := newFake(t, 0, 0, 0)
	if err := g.WriteLocal(128, []byte("abcdefgh")); err != nil {
		t.Fatal(err)
	}
	if _, err := g.MemcpyAsync(128, 256, 8, false); err != nil {
		t.Fatal(err)
	}
	got, err := g.ViewLocal(256, 8)
	if err != nil || string(got) != "abcdefgh" {
		t.Fatalf("client mirror after gMEMCPY = %q, %v", got, err)
	}
	if g.GroupSize() != testGroup {
		t.Fatalf("GroupSize = %d", g.GroupSize())
	}
	if g.ClientNIC().Host() != "client" {
		t.Fatalf("ClientNIC = %s", g.ClientNIC().Host())
	}
	for i := 0; i < testGroup; i++ {
		if h := g.ReplicaNIC(i).Host(); h != fmt.Sprintf("r%d", i) {
			t.Fatalf("ReplicaNIC(%d) = %s, want member order", i, h)
		}
	}
}

// TestParamsCheck pins the one policy validation every datapath's Setup
// makes: a member, a non-empty mirror and a window (Depth rounded up by
// Window) with room for an operation in flight.
func TestParamsCheck(t *testing.T) {
	ok := map[int]int{-1: 32, 0: 32, 3: 4, 19: 32, 64: 64} // Depth → window
	for depth, want := range ok {
		p, err := Params{MirrorSize: 64, Depth: depth, OpTimeout: sim.Millisecond}.Check(1)
		if err != nil || p.Depth != want || p.MirrorSize != 64 || p.OpTimeout != sim.Millisecond {
			t.Errorf("Depth %d: got %+v, %v; want window %d, the rest unchanged", depth, p, err, want)
		}
	}
	bad := map[string]struct {
		p       Params
		members int
	}{
		"no members":    {Params{MirrorSize: 64}, 0},
		"zero mirror":   {Params{}, 3},
		"negative size": {Params{MirrorSize: -1}, 3},
		"Depth 1":       {Params{MirrorSize: 64, Depth: 1}, 3},
		"Depth 2":       {Params{MirrorSize: 64, Depth: 2}, 3},
	}
	for what, c := range bad {
		if _, err := c.p.Check(c.members); !errors.Is(err, ErrBadArgument) {
			t.Errorf("%s: err = %v, want ErrBadArgument", what, err)
		}
	}
}

func TestCloseFailsInFlightOnceAndRejects(t *testing.T) {
	_, g, p := newFake(t, 100*sim.Microsecond, 0, 0)
	// Close destroys what the group's Hosts carved, on every NIC.
	for _, nic := range append([]*rdma.NIC{g.ClientNIC()}, g.env.Replicas...) {
		if h := g.Host(nic); h.CQ() == nil || nic.Idle() {
			t.Fatalf("%s: carving failed: %v", nic.Host(), h.Err())
		}
	}
	var sigs []*sim.Signal
	for i := 0; i < 3; i++ {
		s, err := g.WriteAsync(0, 8, false)
		if err != nil {
			t.Fatal(err)
		}
		sigs = append(sigs, s)
	}
	g.Close()
	g.Close()
	for i, s := range sigs {
		if !s.Fired() || s.Err() != ErrClosed {
			t.Fatalf("in-flight op %d: fired %v err %v, want ErrClosed", i, s.Fired(), s.Err())
		}
	}
	if !g.Closed() || g.InFlight() != 0 {
		t.Fatalf("closed %v, in flight %d", g.Closed(), g.InFlight())
	}
	for _, nic := range append([]*rdma.NIC{g.ClientNIC()}, g.env.Replicas...) {
		if !nic.Idle() {
			t.Fatalf("%s still hosts the closed group's queues", nic.Host())
		}
	}
	if p.k.Pending() != 0 {
		t.Fatalf("Close left %d timeout timers armed", p.k.Pending())
	}
	if _, err := g.WriteAsync(0, 8, false); !errors.Is(err, ErrClosed) {
		t.Fatalf("issue after Close: %v", err)
	}
	g.Complete(p.sent[0], nil) // ack racing the teardown
	if _, completed := g.Stats(); completed != 0 {
		t.Fatalf("ack after Close counted")
	}
}

// TestCloseFailsInFlightInSeqOrder parks one fiber on each of six in-flight
// ops and closes the group: the fibers must resume in the order the ops
// were issued, every time (run it with -count=20 — a map-ordered Close
// passes a single run one time in 720).
func TestCloseFailsInFlightInSeqOrder(t *testing.T) {
	const ops = testDepth - 2
	k, g, _ := newFake(t, 0, 0, 0)
	var resumed []int
	for i := 0; i < ops; i++ {
		k.Spawn("waiter", func(f *sim.Fiber) {
			if err := g.Write(f, 0, 8, false); err != ErrClosed {
				t.Errorf("waiter %d: %v, want ErrClosed", i, err)
			}
			resumed = append(resumed, i)
		})
	}
	k.After(sim.Microsecond, g.Close)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(resumed) != ops {
		t.Fatalf("%d of %d waiters resumed", len(resumed), ops)
	}
	for i, w := range resumed {
		if w != i {
			t.Fatalf("waiters resumed in order %v, want issue order", resumed)
		}
	}
}

func TestIsOpErrorAndRegistry(t *testing.T) {
	for _, err := range []error{ErrTimeout, ErrTooManyInFlight, fmt.Errorf("x: %w", ErrBadArgument), ErrClosed} {
		if !IsOpError(err) {
			t.Errorf("IsOpError(%v) = false", err)
		}
	}
	if IsOpError(errors.New("datapath broke")) {
		t.Error("IsOpError accepts an arbitrary error")
	}

	_, g, _ := newFake(t, 0, 0, 0)
	Register("fake-for-test", "a datapath with no wires", func(Env, Params) (Protocol, error) { return g, nil })
	defer delete(registry, "fake-for-test")
	SetTraits("fake-for-test", Traits{AcksNeeded: func(n int) int { return n/2 + 1 }, CPUDriven: true})
	if got, err := Build("fake-for-test", Env{}, Params{}); err != nil || got != Protocol(g) {
		t.Fatalf("Build = %v, %v", got, err)
	}
	if _, err := Build("no-such-protocol", Env{}, Params{}); err == nil {
		t.Fatal("Build of an unknown name succeeded")
	}
	if AcksNeeded("fake-for-test", 5) != 3 || AcksNeeded("no-such-protocol", 5) != 5 || !TraitsOf("fake-for-test").CPUDriven {
		t.Fatal("traits lookup")
	}
	if len(Names()) != 1 {
		t.Fatalf("Names: %v", Names())
	}
	mustPanic(t, "duplicate Register", func() { Register("fake-for-test", "", nil) })
	mustPanic(t, "SetTraits on unknown", func() { SetTraits("no-such-protocol", Traits{}) })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}
