package naive

import (
	"bytes"
	"errors"
	"testing"

	"hyperloop/internal/cpusim"
	"hyperloop/internal/nvm"
	"hyperloop/internal/protocol"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
)

const (
	testMirror = 64 * 1024
	testDev    = 1 << 20
)

var testParams = protocol.Params{MirrorSize: testMirror}

type env struct {
	k      *sim.Kernel
	g      *Group
	scheds []*cpusim.Scheduler
}

// newEnv builds a naive chain over nReplicas replicas, each on its own
// machine of cores CPUs, with policy p and the default costs in mode.
func newEnv(t *testing.T, nReplicas, cores int, p protocol.Params, mode Mode) *env {
	t.Helper()
	k := sim.NewKernel(42)
	fab := rdma.NewFabric(k, rdma.DefaultConfig())
	client, err := fab.AddNIC("client", nvm.NewDevice("client", testDev))
	if err != nil {
		t.Fatal(err)
	}
	var reps []*rdma.NIC
	var scheds []*cpusim.Scheduler
	for i := 0; i < nReplicas; i++ {
		host := string(rune('a' + i))
		nic, err := fab.AddNIC(host, nvm.NewDevice(host, testDev))
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, nic)
		s, err := cpusim.New(k, cpusim.DefaultConfig(cores))
		if err != nil {
			t.Fatal(err)
		}
		scheds = append(scheds, s)
	}
	cfg := DefaultConfig()
	cfg.Mode = mode
	g, err := Setup(protocol.Env{Fabric: fab, Client: client, Replicas: reps, Scheds: scheds}, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &env{k: k, g: g, scheds: scheds}
}

func (e *env) run(t *testing.T, horizon sim.Duration, fn func(f *sim.Fiber)) {
	t.Helper()
	e.k.Spawn("test", fn)
	if err := e.k.RunUntil(sim.Time(horizon)); err != nil {
		t.Fatalf("kernel: %v", err)
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	h := opHeader{
		seq: 12345, kind: kindCAS, off: 77, size: 8, src: 1, dst: 2,
		old: 10, swp: 20, execMap: 0b101, durable: true,
	}
	buf := make([]byte, headerSize)
	h.encode(buf)
	got := decodeHeader(buf)
	if got != h {
		t.Fatalf("round trip: %+v != %+v", got, h)
	}
}

func TestModeStrings(t *testing.T) {
	for _, m := range []Mode{ModeEvent, ModePolling, ModePinned, Mode(9)} {
		if m.String() == "" {
			t.Fatal("empty mode string")
		}
	}
}

func TestNaiveWriteReplicates(t *testing.T) {
	e := newEnv(t, 3, 4, testParams, ModeEvent)
	data := []byte("naive chain payload")
	e.run(t, sim.Second, func(f *sim.Fiber) {
		_ = e.g.WriteLocal(64, data)
		if err := e.g.Write(f, 64, len(data), false); err != nil {
			t.Errorf("write: %v", err)
		}
	})
	for i := 0; i < 3; i++ {
		got := make([]byte, len(data))
		_ = e.g.ReplicaNIC(i).Memory().Read(64, got)
		if !bytes.Equal(got, data) {
			t.Fatalf("replica %d = %q", i, got)
		}
	}
}

// TestNaiveWriteSteadyStateAllocs: a durable gWRITE through the CPU-driven
// chain allocates nothing once warm — each replica's receive lists and
// handler work items are built per slot at setup.
func TestNaiveWriteSteadyStateAllocs(t *testing.T) {
	e := newEnv(t, 3, 4, testParams, ModeEvent)
	var err error
	write := func(f *sim.Fiber) {
		if werr := e.g.Write(f, 64, 512, true); werr != nil && err == nil {
			err = werr
		}
	}
	e.run(t, sim.Second, func(f *sim.Fiber) {
		// Past every window of the kernel's timing wheel, so its event
		// pool and heaps have peaked.
		for f.Now() < sim.Time(40*sim.Millisecond) {
			write(f)
		}
		allocs := testing.AllocsPerRun(100, func() { write(f) })
		if err != nil {
			t.Error(err)
		}
		if allocs != 0 {
			t.Errorf("naive Write: %v allocations, want 0", allocs)
		}
	})
}

func TestNaiveDurableWriteSurvivesCrash(t *testing.T) {
	e := newEnv(t, 2, 4, testParams, ModeEvent)
	data := []byte("durable naive")
	e.run(t, sim.Second, func(f *sim.Fiber) {
		_ = e.g.WriteLocal(0, data)
		if err := e.g.Write(f, 0, len(data), true); err != nil {
			t.Errorf("write: %v", err)
		}
	})
	for i := 0; i < 2; i++ {
		mem := e.g.ReplicaNIC(i).Memory()
		mem.Crash()
		got := make([]byte, len(data))
		_ = mem.Read(0, got)
		if !bytes.Equal(got, data) {
			t.Fatalf("replica %d lost durable data", i)
		}
	}
}

func TestNaiveCASWithExecuteMap(t *testing.T) {
	e := newEnv(t, 3, 4, testParams, ModeEvent)
	e.run(t, sim.Second, func(f *sim.Fiber) {
		res, err := e.g.CAS(f, 256, 0, 5, []bool{true, false, true})
		if err != nil {
			t.Errorf("cas: %v", err)
			return
		}
		if res[0] != 0 || res[2] != 0 {
			t.Errorf("originals = %v", res)
		}
	})
	for i, want := range []byte{5, 0, 5} {
		b, _ := e.g.ReplicaNIC(i).Memory().Slice(256, 8)
		if b[0] != want {
			t.Fatalf("replica %d = %d, want %d", i, b[0], want)
		}
	}
}

func TestNaiveMemcpyAndFlush(t *testing.T) {
	e := newEnv(t, 2, 4, testParams, ModeEvent)
	rec := []byte("apply this record")
	e.run(t, sim.Second, func(f *sim.Fiber) {
		_ = e.g.WriteLocal(0, rec)
		if err := e.g.Write(f, 0, len(rec), false); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		if err := e.g.Memcpy(f, 0, 4096, len(rec), true); err != nil {
			t.Errorf("memcpy: %v", err)
			return
		}
		if err := e.g.Flush(f, 0, len(rec)); err != nil {
			t.Errorf("flush: %v", err)
		}
	})
	for i := 0; i < 2; i++ {
		mem := e.g.ReplicaNIC(i).Memory()
		mem.Crash() // both ranges were flushed
		got := make([]byte, len(rec))
		_ = mem.Read(4096, got)
		if !bytes.Equal(got, rec) {
			t.Fatalf("replica %d memcpy dst lost", i)
		}
		_ = mem.Read(0, got)
		if !bytes.Equal(got, rec) {
			t.Fatalf("replica %d flushed log lost", i)
		}
	}
}

func TestNaiveUsesReplicaCPU(t *testing.T) {
	e := newEnv(t, 3, 4, testParams, ModeEvent)
	e.run(t, sim.Second, func(f *sim.Fiber) {
		for i := 0; i < 20; i++ {
			_ = e.g.WriteLocal(0, []byte{byte(i)})
			if err := e.g.Write(f, 0, 1, true); err != nil {
				t.Errorf("op %d: %v", i, err)
				return
			}
		}
	})
	// Every replica's handler process must have consumed CPU — the very
	// thing HyperLoop eliminates.
	for i, s := range e.scheds {
		_ = s
		if e.g.replicas[i].proc.TotalCPU() <= 0 {
			t.Fatalf("replica %d consumed no CPU", i)
		}
	}
}

func TestNaiveLatencyInflatesUnderLoad(t *testing.T) {
	measure := func(hogs int) sim.Duration {
		e := newEnv(t, 3, 2, testParams, ModeEvent)
		for _, s := range e.scheds {
			s.AddHogs(hogs)
		}
		var total sim.Duration
		const ops = 30
		done := 0
		e.run(t, 10*sim.Second, func(f *sim.Fiber) {
			for i := 0; i < ops; i++ {
				_ = e.g.WriteLocal(0, []byte{byte(i)})
				start := f.Now()
				if err := e.g.Write(f, 0, 1, false); err != nil {
					t.Errorf("op %d: %v", i, err)
					return
				}
				total += f.Now().Sub(start)
				done++
			}
		})
		if done != ops {
			t.Fatalf("hogs=%d: completed %d/%d", hogs, done, ops)
		}
		return total / ops
	}
	idle := measure(0)
	loaded := measure(16)
	if loaded < 5*idle {
		t.Fatalf("multi-tenant load did not inflate naive latency: idle=%v loaded=%v", idle, loaded)
	}
}

// TestClosedPollingGroupStopsPolling: closing a polling group ends its
// replicas' busy-poll loops. A 1-replica group on a 2-core machine, closed
// before it ever ran, may finish the one poll chunk it had queued, and
// then leaves the machine idle.
func TestClosedPollingGroupStopsPolling(t *testing.T) {
	e := newEnv(t, 1, 2, testParams, ModePolling)
	e.g.Close()
	if err := e.k.RunUntil(sim.Time(10 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if cpu := e.g.ReplicaHandlerCPU(); cpu > 50*sim.Microsecond {
		t.Errorf("replica handler CPU %v after Close, want at most the one 50µs chunk it had queued", cpu)
	}
	if u := e.scheds[0].Utilization(); u >= 0.05 {
		t.Errorf("scheduler utilization %.3f after Close, want < 0.05", u)
	}
}

func TestPinnedPollingAvoidsSchedulingDelay(t *testing.T) {
	measure := func(mode Mode) sim.Duration {
		e := newEnv(t, 3, 2, testParams, mode)
		for _, s := range e.scheds {
			s.AddHogs(16)
		}
		var total sim.Duration
		const ops = 20
		e.run(t, 20*sim.Second, func(f *sim.Fiber) {
			for i := 0; i < ops; i++ {
				_ = e.g.WriteLocal(0, []byte{byte(i)})
				start := f.Now()
				if err := e.g.Write(f, 0, 1, false); err != nil {
					t.Errorf("%v op %d: %v", mode, i, err)
					return
				}
				total += f.Now().Sub(start)
			}
		})
		return total / ops
	}
	event := measure(ModeEvent)
	pinned := measure(ModePinned)
	if pinned >= event {
		t.Fatalf("pinned polling (%v) not faster than event mode (%v) under load", pinned, event)
	}
	if pinned > 200*sim.Microsecond {
		t.Fatalf("pinned polling latency %v, want well under load-inflated values", pinned)
	}
}

func TestNaiveWindowAndValidation(t *testing.T) {
	p := testParams
	p.Depth = 4
	e := newEnv(t, 1, 2, p, ModeEvent)
	e.run(t, sim.Second, func(f *sim.Fiber) {
		count := 0
		var last *sim.Signal
		for {
			sig, err := e.g.WriteAsync(0, 1, false)
			if errors.Is(err, protocol.ErrTooManyInFlight) {
				break
			}
			if err != nil {
				t.Errorf("err: %v", err)
				return
			}
			last = sig
			count++
			if count > 100 {
				t.Error("window never closed")
				return
			}
		}
		if last != nil {
			_ = f.Await(last)
		}
		if _, err := e.g.WriteAsync(testMirror, 8, false); err == nil {
			t.Error("out of range accepted")
		}
		if _, err := e.g.CAS(f, 0, 0, 1, []bool{true, true}); !errors.Is(err, protocol.ErrBadArgument) {
			t.Errorf("bad exec map err = %v", err)
		}
	})
}

func TestNaiveTimeout(t *testing.T) {
	p := testParams
	p.OpTimeout = 300 * sim.Microsecond
	e := newEnv(t, 3, 4, p, ModeEvent)
	e.run(t, sim.Second, func(f *sim.Fiber) {
		e.g.ReplicaNIC(1).SetDown(true)
		_ = e.g.WriteLocal(0, []byte{1})
		if err := e.g.Write(f, 0, 1, false); !errors.Is(err, protocol.ErrTimeout) {
			t.Errorf("err = %v, want timeout", err)
		}
	})
}

func TestRetryRecoversFromTransientCrash(t *testing.T) {
	// The replica handlers are stateless per message, so after a replica
	// NIC restart a re-issued write goes through — the retry loop converts
	// a transient crash into latency instead of an error.
	p := testParams
	p.OpTimeout = 300 * sim.Microsecond
	p.MaxRetries = 3
	p.RetryBackoff = 200 * sim.Microsecond
	e := newEnv(t, 3, 4, p, ModeEvent)
	e.run(t, sim.Second, func(f *sim.Fiber) {
		nic := e.g.ReplicaNIC(1)
		nic.SetDown(true)
		e.k.After(450*sim.Microsecond, func() { nic.SetDown(false) })
		_ = e.g.WriteLocal(0, []byte{0xAB})
		if err := e.g.Write(f, 0, 1, true); err != nil {
			t.Errorf("retried write failed: %v", err)
		}
		if got := e.g.Retried(); got < 1 {
			t.Errorf("Retried() = %d, want >= 1", got)
		}
		// The write that finally succeeded must be replicated everywhere.
		for i := 0; i < e.g.GroupSize(); i++ {
			b := make([]byte, 1)
			if err := e.g.ReplicaNIC(i).Memory().Read(0, b); err != nil {
				t.Fatal(err)
			}
			if b[0] != 0xAB {
				t.Errorf("replica %d byte = %#x, want 0xAB", i, b[0])
			}
		}
	})
}

func TestContendedPollingWorseThanEvent(t *testing.T) {
	// §6.2's counterintuitive Fig. 11 finding: with many tenants polling,
	// contention makes polling SLOWER on average than event-driven
	// handlers, because pollers burn shared cores.
	measure := func(mode Mode) sim.Duration {
		e := newEnv(t, 3, 2, testParams, mode)
		for _, s := range e.scheds {
			// Several other tenants' pollers contend for the two cores.
			for i := 0; i < 6; i++ {
				p := s.NewProc("tenant-poller")
				p.SetRefill(func() sim.Duration { return 50 * sim.Microsecond })
			}
		}
		var total sim.Duration
		const ops = 25
		e.run(t, 30*sim.Second, func(f *sim.Fiber) {
			for i := 0; i < ops; i++ {
				_ = e.g.WriteLocal(0, []byte{byte(i)})
				start := f.Now()
				if err := e.g.Write(f, 0, 1, false); err != nil {
					t.Errorf("%v op %d: %v", mode, i, err)
					return
				}
				total += f.Now().Sub(start)
			}
		})
		return total / ops
	}
	event := measure(ModeEvent)
	polling := measure(ModePolling)
	if polling <= event {
		t.Fatalf("contended polling (%v) should be slower than event mode (%v)", polling, event)
	}
}

// TestFailedSetupReleasesNICs: a Setup whose third replica's device holds
// the mirror but not the rings fails, and closes what it carved on the
// client and the first two replicas, so a Setup over those three NICs
// succeeds and replicates.
func TestFailedSetupReleasesNICs(t *testing.T) {
	k := sim.NewKernel(42)
	env := protocol.Env{Fabric: rdma.NewFabric(k, rdma.DefaultConfig())}
	add := func(host string, size int) *rdma.NIC {
		nic, err := env.Fabric.AddNIC(host, nvm.NewDevice(host, size))
		if err != nil {
			t.Fatal(err)
		}
		return nic
	}
	env.Client = add("client", testDev)
	for i, size := range []int{testDev, testDev, testMirror + 64} {
		env.Replicas = append(env.Replicas, add(string(rune('a'+i)), size))
		s, err := cpusim.New(k, cpusim.DefaultConfig(4))
		if err != nil {
			t.Fatal(err)
		}
		env.Scheds = append(env.Scheds, s)
	}
	if _, err := Setup(env, testParams, DefaultConfig()); err == nil {
		t.Fatal("Setup over a too-small device succeeded")
	}
	for _, nic := range append([]*rdma.NIC{env.Client}, env.Replicas...) {
		if !nic.Idle() {
			t.Fatalf("failed Setup left %s claimed", nic.Host())
		}
	}
	env.Replicas, env.Scheds = env.Replicas[:2], env.Scheds[:2]
	g, err := Setup(env, testParams, DefaultConfig())
	if err != nil {
		t.Fatalf("Setup after a failed one: %v", err)
	}
	k.Spawn("test", func(f *sim.Fiber) {
		if err := g.Write(f, 0, 64, true); err != nil {
			t.Error(err)
		}
	})
	if err := k.RunUntil(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	if _, completed := g.Stats(); completed != 1 {
		t.Fatalf("completed %d writes, want 1", completed)
	}
}
