package hypotheses

import (
	"errors"
	"fmt"

	"hyperloop/internal/cpusim"
	"hyperloop/internal/metrics"
	"hyperloop/internal/nvm"
	"hyperloop/internal/protocol"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"

	// Scenarios build protocols by registry name; link the implementations.
	_ "hyperloop/internal/hyperloop"
	_ "hyperloop/internal/naive"
)

// deployCfg describes one simulated deployment: a client machine plus
// nReplicas storage servers. Unlike the experiments cluster there is no
// trial arena — every scenario run builds fresh kernels, so one scenario
// can never perturb another's counters and the catalog needs no pooling
// discipline to stay deterministic.
type deployCfg struct {
	seed     uint64
	proto    string // protocol registry name
	replicas int    // default 3
	mirror   int    // default 256 KB
	cores    int    // per-replica CPU cores, default 8

	// Co-located tenant load on every replica's scheduler.
	hogs       int
	noise      int
	noiseBurst sim.Duration
	noiseIdle  sim.Duration
	storms     bool

	// Blocking-path failure policy.
	opTimeout    sim.Duration
	maxRetries   int
	retryBackoff sim.Duration

	// Multi-tenant wake penalty for CPU-driven protocols (see
	// protocol.Params).
	wakePenalty     sim.Duration
	wakePenaltyProb float64

	// faults is installed on the fabric before any NIC exists, exactly as
	// the experiments cluster does, so scheduled NIC events and link rules
	// are armed for the whole run.
	faults *rdma.FaultPlan
}

// deployment is a built scenario cluster.
type deployment struct {
	k       *sim.Kernel
	fab     *rdma.Fabric
	client  *rdma.NIC
	members []*rdma.NIC
	scheds  []*cpusim.Scheduler
	group   protocol.Protocol
}

// devSize returns the device size needed for mirror + control structures.
func devSize(mirror int) int { return mirror + 4<<20 }

// newDeployment builds the deployment and the named protocol over it.
func newDeployment(cfg deployCfg) (*deployment, error) {
	if cfg.replicas == 0 {
		cfg.replicas = 3
	}
	if cfg.mirror == 0 {
		cfg.mirror = 256 << 10
	}
	if cfg.cores == 0 {
		cfg.cores = 8
	}
	k := sim.NewKernel(cfg.seed)
	fab := rdma.NewFabric(k, rdma.DefaultConfig())
	if cfg.faults != nil {
		if err := fab.InstallFaultPlan(cfg.faults); err != nil {
			return nil, err
		}
	}
	client, err := fab.AddNIC("client", nvm.NewDevice("client", devSize(cfg.mirror)))
	if err != nil {
		return nil, err
	}
	d := &deployment{k: k, fab: fab, client: client}
	for i := 0; i < cfg.replicas; i++ {
		host := fmt.Sprintf("server-%d", i)
		nic, err := fab.AddNIC(host, nvm.NewDevice(host, devSize(cfg.mirror)))
		if err != nil {
			return nil, err
		}
		d.members = append(d.members, nic)
		sched, err := cpusim.New(k, cpusim.DefaultConfig(cfg.cores))
		if err != nil {
			return nil, err
		}
		sched.AddHogs(cfg.hogs)
		if cfg.noise > 0 {
			sched.AddNoise(cfg.noise, cfg.noiseBurst, cfg.noiseIdle)
		}
		if cfg.storms {
			sched.AddStorms(2*cfg.cores, 200*sim.Millisecond, 4*sim.Millisecond)
		}
		d.scheds = append(d.scheds, sched)
	}
	g, err := protocol.Build(cfg.proto, protocol.Env{
		Fabric: fab, Client: client, Replicas: d.members, Scheds: d.scheds,
	}, protocol.Params{
		MirrorSize:      cfg.mirror,
		OpTimeout:       cfg.opTimeout,
		MaxRetries:      cfg.maxRetries,
		RetryBackoff:    cfg.retryBackoff,
		WakePenalty:     cfg.wakePenalty,
		WakePenaltyProb: cfg.wakePenaltyProb,
	})
	if err != nil {
		return nil, err
	}
	d.group = g
	return d, nil
}

// counters snapshots the deployment's deterministic totals.
func (d *deployment) counters() Counters { return countersOf(d.k, d.fab) }

// countersOf snapshots the deterministic totals of one kernel and fabric.
func countersOf(k *sim.Kernel, fab *rdma.Fabric) Counters {
	msgs, bytes := fab.Stats()
	fs := fab.FaultStats()
	return Counters{
		SimEvents: k.Executed(),
		CQEs:      fab.CQEs(),
		Messages:  msgs,
		WireBytes: bytes,
		Drops:     fs.Drops,
		Dups:      fs.Dups,
	}
}

// drive runs fn as the deployment's single driver fiber.
func (d *deployment) drive(horizon sim.Duration, fn func(f *sim.Fiber) error) error {
	return drive(d.k, horizon, "hypothesis-driver", fn)
}

// drive spawns a single driver fiber called name, runs the kernel until
// the driver finishes (it stops the run; background tenant load never
// drains on its own) or the horizon elapses, and propagates the driver's
// error.
func drive(k *sim.Kernel, horizon sim.Duration, name string, fn func(f *sim.Fiber) error) error {
	var runErr error
	done := false
	k.Spawn(name, func(f *sim.Fiber) {
		defer k.StopRun()
		runErr = fn(f)
		done = true
	})
	if err := k.RunUntil(k.Now().Add(horizon)); err != nil && !errors.Is(err, sim.ErrStopped) {
		return err
	}
	if runErr != nil {
		return runErr
	}
	if !done {
		return fmt.Errorf("driver hung: horizon %v elapsed", horizon)
	}
	return nil
}

// latency drives ops closed-loop durable writes of the given size and
// returns the latency histogram.
func (d *deployment) latency(ops, size int) (*metrics.Histogram, error) {
	h := metrics.NewHistogram()
	err := d.drive(60*sim.Second, func(f *sim.Fiber) error {
		for i := 0; i < ops; i++ {
			off := (i % 128) * 2048
			start := f.Now()
			if err := d.group.Write(f, off, size, true); err != nil {
				return fmt.Errorf("op %d: %w", i, err)
			}
			h.RecordDuration(f.Now().Sub(start))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return h, nil
}

// fd formats a virtual duration for tables and observations.
func fd(d sim.Duration) string { return metrics.FormatDuration(d) }

// ft formats a virtual instant as an offset from t=0.
func ft(t sim.Time) string { return fd(t.Sub(sim.Time(0))) }
