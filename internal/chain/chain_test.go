package chain

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	_ "hyperloop/internal/hyperloop" // registers "chain"
	"hyperloop/internal/protocol"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
	"hyperloop/internal/topo"
	"hyperloop/internal/txn"
	"hyperloop/internal/wal"
)

const devSize = 1 << 20

// buildNICs places n members on a rack of n servers, its kernel seeded
// with seed, and returns the kernel and the members' NICs.
func buildNICs(t *testing.T, seed uint64, n int) (*sim.Kernel, []*rdma.NIC) {
	t.Helper()
	r, err := topo.Build(topo.Spec{Seed: seed, Servers: n, DevExtra: devSize})
	if err != nil {
		t.Fatal(err)
	}
	env, err := r.Env(topo.GroupSpec{Servers: topo.FirstServers(n)})
	if err != nil {
		t.Fatal(err)
	}
	return r.Kernel, env.Replicas
}

func TestValidation(t *testing.T) {
	k, nics := buildNICs(t, 1, 1)
	if _, err := New(k, nil, DefaultConfig()); !errors.Is(err, ErrBadMember) {
		t.Fatalf("err = %v", err)
	}
	m, err := New(k, nics, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if m.cfg != DefaultConfig() {
		t.Fatalf("zero config filled as %+v, want the defaults", m.cfg)
	}
}

func TestFailureDetectionAfterConsecutiveMisses(t *testing.T) {
	k, nics := buildNICs(t, 1, 3)
	cfg := DefaultConfig()
	m, err := New(k, nics, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var suspected []int
	m.onSuspect = func(idx int) { suspected = append(suspected, idx) }
	m.start()

	// Fail member 1 at t=20ms; suspicion requires 3 consecutive misses.
	k.At(sim.Time(20*sim.Millisecond), func() { nics[1].SetDown(true) })
	if err := k.RunUntil(sim.Time(100 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if len(suspected) != 1 || suspected[0] != 1 {
		t.Fatalf("suspected = %v, want [1]", suspected)
	}
	if !m.members[1].suspected {
		t.Fatal("member 1 not marked suspected")
	}
	if h := m.healthy(); h != 0 && h != 2 {
		t.Fatalf("healthy = %d", h)
	}
	m.Stop()
}

func TestBriefBlipDoesNotTriggerSuspicion(t *testing.T) {
	k, nics := buildNICs(t, 1, 2)
	m, err := New(k, nics, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fired := false
	m.onSuspect = func(int) { fired = true }
	m.start()
	// Down for just one heartbeat interval — below the 3-miss threshold.
	k.At(sim.Time(20*sim.Millisecond), func() { nics[0].SetDown(true) })
	k.At(sim.Time(27*sim.Millisecond), func() { nics[0].SetDown(false) })
	if err := k.RunUntil(sim.Time(100 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("transient blip marked suspected")
	}
	m.Stop()
}

func TestRecoveryAfterSuspicionClears(t *testing.T) {
	k, nics := buildNICs(t, 1, 2)
	m, err := New(k, nics, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fired := false
	m.onSuspect = func(int) { fired = true }
	m.start()
	k.At(sim.Time(10*sim.Millisecond), func() { nics[0].SetDown(true) })
	k.At(sim.Time(60*sim.Millisecond), func() { nics[0].SetDown(false) })
	if err := k.RunUntil(sim.Time(120 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if !fired || m.members[0].suspected {
		t.Fatalf("suspicion fired=%v, still suspected=%v: want a suspicion that cleared", fired, m.members[0].suspected)
	}
	m.Stop()
}

// repairRig is a 3-member chain plus a spare on bare NICs: member 1 goes
// down at 1ms and is suspected at 15ms (three missed 5ms beats). The
// catch-up bandwidth is slowed so a 64 KiB transfer spans [15ms, ~80ms),
// a window a test can kill either end of the transfer in.
type repairRig struct {
	k     *sim.Kernel
	nics  []*rdma.NIC // members m0..m2, then the spare m3
	spare *rdma.NIC
	m     *Manager
}

const rigMirror = 64 * 1024

func newRepairRig(t *testing.T) *repairRig {
	t.Helper()
	k, nics := buildNICs(t, 1, 4)
	cfg := DefaultConfig()
	cfg.CatchUpBandwidthBps = 8e6
	m, err := New(k, nics[:3], cfg)
	if err != nil {
		t.Fatal(err)
	}
	_ = nics[0].Memory().Write(0, []byte("source image"))
	nics[0].Memory().FlushAll()
	k.At(sim.Time(sim.Millisecond), func() { nics[1].SetDown(true) })
	return &repairRig{k: k, nics: nics, spare: nics[3], m: m}
}

func (r *repairRig) run(t *testing.T) {
	t.Helper()
	if err := r.k.RunUntil(sim.Time(200 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	r.m.Stop()
}

// TestPauseResumeWrites follows one successful Repair: writes run until the
// suspicion, stay paused through catch-up and rebuild, and resume once
// rebuild has the chain with the spare in the failed member's place.
func TestPauseResumeWrites(t *testing.T) {
	r := newRepairRig(t)
	var (
		pausedInRebuild bool
		members         []*rdma.NIC
	)
	rep := r.m.Repair(r.spare, rigMirror, func(f *sim.Fiber, m []*rdma.NIC) error {
		pausedInRebuild, members = r.m.Paused(), m
		return nil
	})
	if r.m.Paused() {
		t.Fatal("paused before any suspicion")
	}
	r.run(t)
	if !rep.Done.Fired() || rep.Err != nil {
		t.Fatalf("repair done=%v err=%v", rep.Done.Fired(), rep.Err)
	}
	if !pausedInRebuild || r.m.Paused() {
		t.Fatalf("paused during rebuild=%v after=%v, want true then false", pausedInRebuild, r.m.Paused())
	}
	want := []*rdma.NIC{r.nics[0], r.spare, r.nics[2]}
	if fmt.Sprint(members) != fmt.Sprint(want) {
		t.Fatalf("rebuild got members %v, want %v", members, want)
	}
	if rep.Failed != 1 || rep.Source != 0 {
		t.Fatalf("failed=%d source=%d, want 1 and 0", rep.Failed, rep.Source)
	}
	if rep.Suspected != sim.Time(15*sim.Millisecond) || rep.CaughtUp <= rep.Suspected || rep.Resumed != rep.CaughtUp {
		t.Fatalf("timeline suspected=%v caught up=%v resumed=%v", rep.Suspected, rep.CaughtUp, rep.Resumed)
	}
	got := make([]byte, 12)
	_ = r.spare.Memory().ReadDurable(0, got)
	if string(got) != "source image" {
		t.Fatalf("spare durable state = %q", got)
	}
}

// TestRepairErrors drives the ways a Repair stops short. Each must report
// its own cause, call rebuild at most once, leave writes paused and fire
// Done with the error.
func TestRepairErrors(t *testing.T) {
	errRebuild := errors.New("rebuild refused")
	cases := []struct {
		name     string
		kill     func(r *repairRig) *rdma.NIC // the NIC to take down mid-transfer, if any
		rebuild  error
		want     error
		rebuilds int
	}{
		{name: "source dies mid-transfer", kill: func(r *repairRig) *rdma.NIC { return r.nics[0] }, want: ErrSourceLost},
		{name: "target dies mid-transfer", kill: func(r *repairRig) *rdma.NIC { return r.spare }, want: ErrTargetLost},
		{name: "rebuild fails", rebuild: errRebuild, want: errRebuild, rebuilds: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRepairRig(t)
			if tc.kill != nil {
				nic := tc.kill(r)
				r.k.At(sim.Time(40*sim.Millisecond), func() { nic.SetDown(true) })
			}
			rebuilds := 0
			rep := r.m.Repair(r.spare, rigMirror, func(*sim.Fiber, []*rdma.NIC) error {
				rebuilds++
				return tc.rebuild
			})
			r.run(t)
			if !errors.Is(rep.Err, tc.want) {
				t.Fatalf("err = %v, want %v", rep.Err, tc.want)
			}
			if !rep.Done.Fired() || rep.Done.Err() != rep.Err {
				t.Fatalf("done fired=%v with %v, want %v", rep.Done.Fired(), rep.Done.Err(), rep.Err)
			}
			if rebuilds != tc.rebuilds {
				t.Fatalf("rebuild ran %d times, want %d", rebuilds, tc.rebuilds)
			}
			if !r.m.Paused() || rep.Resumed != 0 {
				t.Fatalf("paused=%v resumed=%v after a failed repair, want writes still paused", r.m.Paused(), rep.Resumed)
			}
			if tc.kill != nil {
				// A transfer that lost an end installs nothing.
				got := make([]byte, 6)
				_ = r.spare.Memory().Read(0, got)
				if string(got) == "source" {
					t.Fatal("untrusted image was installed on the replacement")
				}
			}
		})
	}
}

func TestCatchUpCopiesDurableState(t *testing.T) {
	k, nics := buildNICs(t, 1, 3)
	m, err := New(k, nics, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("replica state to transfer")
	_ = nics[0].Memory().Write(0, payload)
	nics[0].Memory().FlushAll()

	var src int
	var catchErr error
	var took sim.Duration
	k.Spawn("recovery", func(f *sim.Fiber) {
		start := f.Now()
		src, catchErr = m.catchUp(f, nics[2], 64*1024)
		took = f.Now().Sub(start)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if catchErr != nil {
		t.Fatalf("catch up: %v", catchErr)
	}
	if src != 0 {
		t.Fatalf("source = %d", src)
	}
	if took <= 0 {
		t.Fatal("catch-up transfer took no time")
	}
	got := make([]byte, len(payload))
	_ = nics[2].Memory().ReadDurable(0, got)
	if !bytes.Equal(got, payload) {
		t.Fatalf("replacement durable state = %q", got)
	}
}

func TestCatchUpNeedsHealthySource(t *testing.T) {
	k, nics := buildNICs(t, 1, 2)
	m, _ := New(k, nics[:1], DefaultConfig())
	nics[0].SetDown(true)
	var err error
	k.Spawn("recovery", func(f *sim.Fiber) {
		_, err = m.catchUp(f, nics[1], 1024)
	})
	if kerr := k.Run(); kerr != nil {
		t.Fatal(kerr)
	}
	if !errors.Is(err, ErrNoHealthy) {
		t.Fatalf("err = %v", err)
	}
}

// TestEndToEndFailover exercises the full §5 recovery flow: a replica
// dies mid-workload; the monitor detects it; writes pause; a replacement
// catches up from a healthy member; a fresh HyperLoop datapath is
// established; writes resume and the data survives.
func TestEndToEndFailover(t *testing.T) {
	const mirror = 256 * 1024
	r, err := topo.Build(topo.Spec{Seed: 77, Servers: 3, DevExtra: devSize - mirror})
	if err != nil {
		t.Fatal(err)
	}
	k := r.Kernel
	chain := protocol.Named("chain")
	tcfg := txn.Config{LogSize: 32 * 1024, DataSize: 64 * 1024}
	g, err := r.Group(topo.GroupSpec{Servers: topo.FirstServers(3), Mirror: mirror}, chain, protocol.Params{OpTimeout: 2 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	env := r.Members("")
	r1 := env.Replicas[1]
	spare, err := r.Fabric.AddNIC("spare", r.Device("spare", mirror))
	if err != nil {
		t.Fatal(err)
	}
	st, err := txn.New(g, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := New(k, env.Replicas, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pausedAtRebuild := false
	rep := mon.Repair(spare, mirror, func(f *sim.Fiber, members []*rdma.NIC) error {
		pausedAtRebuild = mon.Paused()
		// Close the old group first — its abandoned QPs share ring memory
		// with the successor and must not wake on its traffic — then build
		// a fresh group over the new chain and recover the store on it.
		g.Close()
		env.Replicas = members
		g2, err := r.GroupOver(env, chain, protocol.Params{MirrorSize: mirror})
		if err != nil {
			return err
		}
		if st, err = txn.New(g2, tcfg); err != nil {
			return err
		}
		_, err = st.Recover(f)
		return err
	})

	var phase2Data = []byte("written after failover")
	k.Spawn("workload", func(f *sim.Fiber) {
		defer k.StopRun()
		// Phase 1: normal writes.
		for i := 0; i < 5; i++ {
			if _, err := st.Append(f, []wal.Entry{{Off: i * 64, Data: []byte(fmt.Sprintf("pre-%d", i))}}); err != nil {
				t.Errorf("phase1 append %d: %v", i, err)
				return
			}
		}
		if _, err := st.ExecuteAll(f); err != nil {
			t.Errorf("phase1 execute: %v", err)
			return
		}

		// Kill replica 1 and wait for the repair.
		r1.SetDown(true)
		if err := f.Await(rep.Done); err != nil {
			t.Errorf("repair: %v", err)
			return
		}
		if rep.Failed != 1 {
			t.Errorf("suspected %d, want 1", rep.Failed)
			return
		}
		if !pausedAtRebuild || mon.Paused() {
			t.Errorf("paused at rebuild=%v after=%v, want writes paused from suspicion until resume", pausedAtRebuild, mon.Paused())
			return
		}

		// Phase 2: writes flow on the new chain.
		if _, err := st.Append(f, []wal.Entry{{Off: 1024, Data: phase2Data}}); err != nil {
			t.Errorf("phase2 append: %v", err)
			return
		}
		if _, err := st.ExecuteAll(f); err != nil {
			t.Errorf("phase2 execute: %v", err)
		}
	})
	if err := k.RunUntil(sim.Time(5 * sim.Second)); err != nil && !errors.Is(err, sim.ErrStopped) {
		t.Fatal(err)
	}

	// The spare must hold both the pre-failure data (via catch-up) and the
	// post-failover write (via the new chain).
	dataOff := txn.CtrlSize + 32*1024
	img := make([]byte, 16)
	_ = spare.Memory().Read(dataOff, img[:5])
	if string(img[:5]) != "pre-0" {
		t.Fatalf("spare missing caught-up data: %q", img[:5])
	}
	buf := make([]byte, len(phase2Data))
	_ = spare.Memory().Read(dataOff+1024, buf)
	if !bytes.Equal(buf, phase2Data) {
		t.Fatalf("spare missing post-failover data: %q", buf)
	}
}
