package topo

import (
	"errors"
	"sync"
	"testing"

	"hyperloop/internal/hyperloop"
	_ "hyperloop/internal/naive"
	"hyperloop/internal/protocol"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
)

var chain = protocol.Named("chain")

// TestNoCoresNoSchedulers: Cores 0 builds no scheduler, so the kernel RNG's
// next draw is what it is on a kernel that only ever had a fabric made on
// it; a single idle core already moves it.
func TestNoCoresNoSchedulers(t *testing.T) {
	ref := sim.NewKernel(7)
	rdma.NewFabric(ref, rdma.DefaultConfig())
	want := ref.RNG().Uint64()

	r, err := Build(Spec{Seed: 7, Servers: 2, DevExtra: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if r.Scheds != nil {
		t.Fatalf("Cores 0 built %d schedulers", len(r.Scheds))
	}
	env, err := r.Env(GroupSpec{Name: "g", Servers: []int{1, 0}, Mirror: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if env.Scheds != nil {
		t.Fatal("Env.Scheds set on a rack without schedulers")
	}
	if got := r.Kernel.RNG().Uint64(); got != want {
		t.Fatalf("kernel RNG drew %#x after Build+Env, a fresh kernel draws %#x", got, want)
	}

	withCore, err := Build(Spec{Seed: 7, Servers: 2, Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := withCore.Kernel.RNG().Uint64(); got == want {
		t.Fatal("one idle core per server left the kernel RNG untouched; the Cores-0 case tests nothing")
	}
	if _, err := Build(Spec{Seed: 7}); err == nil {
		t.Fatal("a rack of zero servers was built")
	}
	if _, err := Build(Spec{Servers: 1, Faults: &rdma.FaultPlan{Links: []rdma.LinkFault{{DropProb: 2}}}}); !errors.Is(err, rdma.ErrBadFaultPlan) {
		t.Fatalf("bad fault plan: %v", err)
	}
}

// TestGroupWiring checks what Group hands the protocol builder: NIC names,
// device sizes, each replica's server scheduler, the mirror size, and the
// wake penalty exactly when the rack carries tenants.
func TestGroupWiring(t *testing.T) {
	for _, tenants := range []int{0, 10} {
		r, err := Build(Spec{Seed: 1, Servers: 4, Cores: 2, TenantsPerCore: tenants, DevExtra: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		var env protocol.Env
		var p protocol.Params
		probe := func(e protocol.Env, q protocol.Params) (protocol.Protocol, error) {
			env, p = e, q
			return chain(e, q)
		}
		g, err := r.Group(GroupSpec{Name: "kv", Servers: []int{3, 1}, Mirror: 8192}, probe, protocol.Params{Depth: 8})
		if err != nil {
			t.Fatal(err)
		}
		if env.Client.Host() != "cli/kv" || env.Replicas[0].Host() != "srv3/kv.0" || env.Replicas[1].Host() != "srv1/kv.1" {
			t.Errorf("NIC names: %s %s %s", env.Client.Host(), env.Replicas[0].Host(), env.Replicas[1].Host())
		}
		if env.Scheds[0] != r.Scheds[3] || env.Scheds[1] != r.Scheds[1] {
			t.Error("replica schedulers are not their servers'")
		}
		if got := env.Replicas[0].Memory().Size(); got != 8192+1<<20 {
			t.Errorf("device size %d, want mirror + DevExtra", got)
		}
		if p.MirrorSize != 8192 || p.Depth != 8 {
			t.Errorf("params %+v", p)
		}
		if wantPenalty := tenants > 0; (p.WakePenalty > 0) != wantPenalty || (p.WakePenaltyProb > 0) != wantPenalty {
			t.Errorf("tenants=%d: wake penalty %v p=%v", tenants, p.WakePenalty, p.WakePenaltyProb)
		}
		if m := r.Members("kv"); m.Client != env.Client || len(m.Replicas) != 2 || m.Replicas[1] != env.Replicas[1] {
			t.Error("Members did not return the placed NICs")
		}
		if m := r.Members("nope"); m.Client != nil {
			t.Error("Members invented a group")
		}
		// The sole-group layout keeps the names reports and fault plans use.
		sole, err := r.Env(GroupSpec{Servers: FirstServers(2), Mirror: 4096})
		if err != nil {
			t.Fatal(err)
		}
		if sole.Client.Host() != "client" || sole.Replicas[1].Host() != "server-1" {
			t.Errorf("sole-group names: %s %s", sole.Client.Host(), sole.Replicas[1].Host())
		}
		if err := r.Run(sim.Second, "writer", func(f *sim.Fiber) error { return g.Write(f, 0, 64, true) }); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFailedGroupClosesBuilt: a Group that cannot be placed or built leaves
// the rack half-made, so the groups already built are closed.
func TestFailedGroupClosesBuilt(t *testing.T) {
	for name, bad := range map[string]func(r *Rack) error{
		"unknown protocol": func(r *Rack) error {
			_, err := r.Group(GroupSpec{Name: "b", Servers: []int{0, 1}, Mirror: 4096}, protocol.Named("no-such-protocol"), protocol.Params{})
			return err
		},
		"server out of range": func(r *Rack) error {
			_, err := r.Group(GroupSpec{Name: "b", Servers: []int{0, 2}, Mirror: 4096}, chain, protocol.Params{})
			return err
		},
		"negative server": func(r *Rack) error {
			_, err := r.Group(GroupSpec{Name: "b", Servers: []int{-1}, Mirror: 4096}, chain, protocol.Params{})
			return err
		},
		"duplicate name": func(r *Rack) error {
			_, err := r.Group(GroupSpec{Name: "a", Servers: []int{0, 1}, Mirror: 4096}, chain, protocol.Params{})
			return err
		},
	} {
		r, err := Build(Spec{Seed: 1, Servers: 2, DevExtra: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		a, err := r.Group(GroupSpec{Name: "a", Servers: []int{0, 1}, Mirror: 4096}, chain, protocol.Params{})
		if err != nil {
			t.Fatal(err)
		}
		if bad(r) == nil {
			t.Fatalf("%s: Group succeeded", name)
		}
		if _, err := a.WriteAsync(0, 64, false); !errors.Is(err, protocol.ErrClosed) {
			t.Errorf("%s: the group built before the failure is still open: %v", name, err)
		}
	}
}

// TestRun covers the one run loop's four endings.
func TestRun(t *testing.T) {
	r, err := Build(Spec{Seed: 1, Servers: 1, Cores: 1, TenantsPerCore: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(sim.Second, "ok", func(f *sim.Fiber) error { f.Sleep(sim.Millisecond); return nil }); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	boom := errors.New("boom")
	if err := r.Run(sim.Second, "fails", func(f *sim.Fiber) error { return boom }); err != boom {
		t.Fatalf("driver error not returned bare: %v", err)
	}
	never := sim.NewSignal()
	if err := r.Run(sim.Millisecond, "stuck", func(f *sim.Fiber) error { return f.Await(never) }); err == nil {
		t.Fatal("a hung driver was not reported")
	}
	// Caller-spawned fibers: the run ends when one of them stops it, or at
	// the horizon (tenant load alone never ends a run).
	stopped := false
	r.Kernel.Spawn("own", func(f *sim.Fiber) {
		f.Sleep(sim.Millisecond)
		stopped = true
		r.Kernel.StopRun()
	})
	start := r.Kernel.Now()
	if err := r.Run(sim.Second, "", nil); err != nil || !stopped {
		t.Fatalf("nil-fn run: err=%v stopped=%v", err, stopped)
	}
	if err := r.Run(sim.Millisecond, "", nil); err != nil {
		t.Fatalf("horizon with no driver: %v", err)
	}
	if got := r.Kernel.Now().Sub(start); got < 2*sim.Millisecond {
		t.Fatalf("two runs advanced the clock only %v", got)
	}
}

// TestRunRejectsStaleFaultHost: a plan naming a NIC the rack never got
// would match nothing and fail nothing, so Run refuses it.
func TestRunRejectsStaleFaultHost(t *testing.T) {
	for host, ok := range map[string]bool{"cli/sh0": true, "srv1/sh0.1": true, "cli-sh0": false} {
		r, err := Build(Spec{Seed: 1, Servers: 2, DevExtra: 1 << 20, Faults: &rdma.FaultPlan{
			Links: []rdma.LinkFault{{From: host, ExtraDelay: sim.Microsecond}},
		}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Group(GroupSpec{Name: "sh0", Servers: []int{0, 1}, Mirror: 4096}, chain, protocol.Params{}); err != nil {
			t.Fatal(err)
		}
		err = r.Run(sim.Millisecond, "idle", func(*sim.Fiber) error { return nil })
		if (err == nil) != ok {
			t.Errorf("plan naming %q: Run returned %v", host, err)
		}
	}
	r, err := Build(Spec{Seed: 1, Servers: 1, Faults: &rdma.FaultPlan{
		NICs: []rdma.NICFault{{Host: "server-9", At: sim.Time(sim.Millisecond), Down: true}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(sim.Millisecond, "", nil); err == nil {
		t.Error("a crash scheduled for a NIC the rack does not have was accepted")
	}
}

// TestGroupOver: a second group over NICs the rack already has is built
// without placing anything, and Close tears it down with the rest.
func TestGroupOver(t *testing.T) {
	r, err := Build(Spec{Seed: 1, Servers: 3, DevExtra: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	g1, err := r.Group(GroupSpec{Servers: FirstServers(3), Mirror: 64 << 10}, chain, protocol.Params{})
	if err != nil {
		t.Fatal(err)
	}
	g1.Close()
	spare, err := r.Fabric.AddNIC("spare", r.Device("spare", 64<<10))
	if err != nil {
		t.Fatal(err)
	}
	env := r.Members("")
	env.Replicas = []*rdma.NIC{env.Replicas[0], spare, env.Replicas[2]}
	g2, err := r.GroupOver(env, chain, protocol.Params{MirrorSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g2.(*hyperloop.Group); !ok {
		t.Fatalf("GroupOver built %T", g2)
	}
	if err := r.Run(sim.Second, "writer", func(f *sim.Fiber) error { return g2.Write(f, 0, 128, true) }); err != nil {
		t.Fatal(err)
	}
	if _, err := r.GroupOver(env, protocol.Named("no-such-protocol"), protocol.Params{}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	if _, err := g2.WriteAsync(0, 64, false); err != nil {
		t.Fatalf("a failed GroupOver closed the rack's groups: %v", err)
	}
}

// TestRacksDoNotShareBanks builds and drives two racks on two goroutines,
// as parallel trials do. Each rack's devices take their pre-image pages
// from the rack's own bank, so the race detector sees no spare list
// shared between them, and each rack counts the pages of its own devices
// alone: the same as a rack built and driven by itself.
func TestRacksDoNotShareBanks(t *testing.T) {
	type result struct {
		r     *Rack
		pages DevicePages
		err   error
	}
	drive := func() (res result) {
		if res.r, res.err = Build(Spec{Seed: 3, Servers: 2, DevExtra: 1 << 20}); res.err != nil {
			return res
		}
		r := res.r
		defer r.Close()
		const block = 16 << 10
		g, err := r.Group(GroupSpec{Servers: FirstServers(2), Mirror: 4 * block}, chain, protocol.Params{})
		if err != nil {
			res.err = err
			return res
		}
		// Each pass rewrites flushed bytes, so every member takes
		// pre-image pages and each write's flush hands them back.
		res.err = r.Run(sim.Second, "rewrite", func(f *sim.Fiber) error {
			data := make([]byte, block)
			for i := 0; i < 8; i++ {
				for j := range data {
					data[j] = byte(i + j + 1)
				}
				off := i % 3 * block
				if err := g.WriteLocal(off, data); err != nil {
					return err
				}
				if err := g.Write(f, off, block, true); err != nil {
					return err
				}
			}
			return nil
		})
		res.pages = r.DevicePages()
		return res
	}
	alone := drive()
	if alone.err != nil {
		t.Fatal(alone.err)
	}
	if p := alone.pages; p.PreImage+p.Spare == 0 {
		t.Fatalf("the rewrites made no pre-image page (%+v): the test drives no bank", p)
	}
	var both [2]result
	var wg sync.WaitGroup
	for i := range both {
		wg.Add(1)
		go func() {
			defer wg.Done()
			both[i] = drive()
		}()
	}
	wg.Wait()
	for i, res := range both {
		if res.err != nil {
			t.Fatalf("rack %d: %v", i, res.err)
		}
		if res.pages != alone.pages {
			t.Errorf("rack %d holds %+v, a rack driven alone %+v", i, res.pages, alone.pages)
		}
	}
	if both[0].r.bank == both[1].r.bank {
		t.Error("two racks share one bank")
	}
}
