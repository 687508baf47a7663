// Package experiments regenerates every table and figure of the paper's
// evaluation (§2.2 Fig. 2, §6.1 Figs. 8–10 + Table 2, §6.2 Figs. 11–12)
// plus ablations, over the simulated cluster. Each experiment returns a
// Report whose tables print the same rows/series the paper shows.
package experiments

import (
	"fmt"

	"hyperloop/internal/cpusim"
	"hyperloop/internal/hyperloop"
	"hyperloop/internal/metrics"
	"hyperloop/internal/naive"
	"hyperloop/internal/protocol"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
	"hyperloop/internal/txn"
)

// Backend selects the replication datapath under test.
type Backend int

// Backends under comparison.
const (
	BackendHyperLoop Backend = iota + 1
	BackendNaiveEvent
	BackendNaivePolling
	BackendNaivePinned
)

// String returns the figure-legend name.
func (b Backend) String() string {
	switch b {
	case BackendHyperLoop:
		return "HyperLoop"
	case BackendNaiveEvent:
		return "Naive-RDMA(event)"
	case BackendNaivePolling:
		return "Naive-RDMA(polling)"
	case BackendNaivePinned:
		return "Naive-RDMA(pinned)"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// groupAPI is the part of protocol.Protocol that experiments drive:
// txn.Replicator plus async writes, the in-flight count and teardown.
type groupAPI interface {
	txn.Replicator
	WriteAsync(off, size int, durable bool) (*sim.Signal, error)
	InFlight() int
	Close()
}

var (
	_ groupAPI = (*hyperloop.Group)(nil)
	_ groupAPI = (*naive.Group)(nil)
	_ groupAPI = (*hyperloop.FanoutGroup)(nil)
	_ groupAPI = (protocol.Protocol)(nil)
)

// clusterCfg describes one simulated deployment: a client machine plus
// nReplicas storage servers, each with its own CPU scheduler and
// co-located tenant load.
type clusterCfg struct {
	seed     uint64
	replicas int
	mirror   int
	depth    int
	backend  Backend

	// ar is the trial arena that supplies this cluster's kernel, devices,
	// and fabric payload pool; nil builds everything fresh.
	ar *trialArena

	// Per storage server CPU model.
	cores int
	hogs  int // always-runnable stress-ng style processes
	noise int // bursty tenant processes (see noiseBurst/noiseIdle)

	noiseBurst sim.Duration
	noiseIdle  sim.Duration
	storms     bool // periodic batch-daemon bursts (see cpusim.AddStorms)

	// Overrides for the naive backend's per-op CPU costs (0 = defaults).
	naiveRecvCPU sim.Duration
	naivePostCPU sim.Duration

	// Failure handling: group operation timeout, retries on the blocking
	// paths (0 = disabled), and a fault plan installed on the fabric right
	// after it is built.
	opTimeout    sim.Duration
	maxRetries   int
	retryBackoff sim.Duration
	faults       *rdma.FaultPlan
}

// multiTenantLoad configures the paper's co-location: ~10 tenant processes
// per core, bursty, keeping utilization near saturation (§2.2, §6).
func (c *clusterCfg) multiTenantLoad() {
	c.noise = 10 * c.cores
	c.noiseBurst = 300 * sim.Microsecond
	c.noiseIdle = 2700 * sim.Microsecond
	c.hogs = c.cores / 2
	c.storms = true
}

// cluster is a built deployment.
type cluster struct {
	k       *sim.Kernel
	fab     *rdma.Fabric
	client  *rdma.NIC
	scheds  []*cpusim.Scheduler
	group   groupAPI
	members []*rdma.NIC

	// replicaCPU returns total replica-handler CPU (zero unless naive).
	replicaCPU func() sim.Duration
}

// devSize returns the device size needed for mirror + control structures.
func devSize(mirror int) int {
	extra := 4 << 20
	return mirror + extra
}

// newMachines builds everything below the replication group: kernel,
// fabric (with the fault plan, if any), the client NIC, and per storage
// server a NIC and a CPU scheduler carrying the configured tenant load.
// The AddNIC/cpusim.New call order fixes RNG draws and event sequence
// numbers, so every cluster constructor goes through this one loop.
func newMachines(cfg clusterCfg) (*cluster, error) {
	k := cfg.ar.kernel(cfg.seed)
	fab := cfg.ar.fabric(k, rdma.DefaultConfig())
	if cfg.faults != nil {
		if err := fab.InstallFaultPlan(cfg.faults); err != nil {
			return nil, err
		}
	}
	client, err := fab.AddNIC("client", cfg.ar.device("client", devSize(cfg.mirror)))
	if err != nil {
		return nil, err
	}
	c := &cluster{k: k, fab: fab, client: client, replicaCPU: func() sim.Duration { return 0 }}
	for i := 0; i < cfg.replicas; i++ {
		host := fmt.Sprintf("server-%d", i)
		nic, err := fab.AddNIC(host, cfg.ar.device(host, devSize(cfg.mirror)))
		if err != nil {
			return nil, err
		}
		c.members = append(c.members, nic)
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
		c.scheds = append(c.scheds, sched)
	}
	return c, nil
}

// newCluster builds the deployment.
func newCluster(cfg clusterCfg) (*cluster, error) {
	if cfg.depth == 0 {
		cfg.depth = 32
	}
	c, err := newMachines(cfg)
	if err != nil {
		return nil, err
	}
	switch cfg.backend {
	case BackendHyperLoop:
		gcfg := hyperloop.DefaultConfig(cfg.mirror)
		gcfg.Depth = cfg.depth
		gcfg.OpTimeout = cfg.opTimeout
		gcfg.MaxRetries = cfg.maxRetries
		gcfg.RetryBackoff = cfg.retryBackoff
		g, err := hyperloop.Setup(c.fab, c.client, c.members, gcfg)
		if err != nil {
			return nil, err
		}
		c.group = g
	default:
		gcfg := naive.DefaultConfig(cfg.mirror)
		gcfg.Depth = cfg.depth
		gcfg.OpTimeout = cfg.opTimeout
		gcfg.MaxRetries = cfg.maxRetries
		gcfg.RetryBackoff = cfg.retryBackoff
		if cfg.naiveRecvCPU > 0 {
			gcfg.RecvHandlerCPU = cfg.naiveRecvCPU
		}
		if cfg.naivePostCPU > 0 {
			gcfg.PostCPU = cfg.naivePostCPU
		}
		if cfg.noise > 0 {
			// Multi-tenant co-location: the replica handler is one tenant
			// among ~10 per core and loses its machine-wide sleeper credit.
			gcfg.WakePenalty = 3 * sim.Millisecond
			gcfg.WakePenaltyProb = 0.015
		}
		switch cfg.backend {
		case BackendNaivePolling:
			gcfg.Mode = naive.ModePolling
		case BackendNaivePinned:
			gcfg.Mode = naive.ModePinned
		default:
			gcfg.Mode = naive.ModeEvent
		}
		g, err := naive.Setup(c.fab, c.client, c.members, c.scheds, gcfg)
		if err != nil {
			return nil, err
		}
		c.group = g
		c.replicaCPU = g.ReplicaHandlerCPU
	}
	return c, nil
}

// nics returns the replica NICs in member order.
func (c *cluster) nics() []*rdma.NIC { return c.members }

// newProtocolCluster builds the deployment with the named replication
// protocol from the registry (chain, fanout, bcast, bcast-maj, naive, …)
// instead of a Backend constant. The clusterCfg policy knobs (depth,
// timeout/retry, faults) apply; backend-specific fields are ignored.
func newProtocolCluster(cfg clusterCfg, name string) (*cluster, error) {
	c, err := newMachines(cfg)
	if err != nil {
		return nil, err
	}
	g, err := protocol.Build(name, protocol.Env{
		Fabric: c.fab, Client: c.client, Replicas: c.members, Scheds: c.scheds,
	}, protocol.Params{
		MirrorSize:   cfg.mirror,
		Depth:        cfg.depth,
		OpTimeout:    cfg.opTimeout,
		MaxRetries:   cfg.maxRetries,
		RetryBackoff: cfg.retryBackoff,
	})
	if err != nil {
		return nil, err
	}
	c.group = g
	if ng, ok := g.(*naive.Group); ok {
		c.replicaCPU = ng.ReplicaHandlerCPU
	}
	return c, nil
}

// newFanoutCluster builds the same deployment with the fan-out topology.
func newFanoutCluster(cfg clusterCfg) (*cluster, error) {
	if cfg.backend != BackendHyperLoop {
		return nil, fmt.Errorf("experiments: fan-out is only implemented for the HyperLoop backend")
	}
	if cfg.depth == 0 {
		cfg.depth = 32
	}
	c, err := newMachines(cfg)
	if err != nil {
		return nil, err
	}
	gcfg := hyperloop.DefaultConfig(cfg.mirror)
	gcfg.Depth = cfg.depth
	g, err := hyperloop.SetupFanout(c.fab, c.client, c.members, gcfg)
	if err != nil {
		return nil, err
	}
	c.group = g
	return c, nil
}

// runLatency drives ops sequential (closed-loop) group writes of the given
// size and returns the latency histogram.
func (c *cluster) runLatency(ops, size int, issue func(f *sim.Fiber, i int) error) (*metrics.Histogram, error) {
	h := metrics.NewHistogram()
	var runErr error
	c.k.Spawn("latency-driver", func(f *sim.Fiber) {
		defer c.k.StopRun() // background tenant load runs forever; cut it here
		for i := 0; i < ops; i++ {
			start := f.Now()
			if err := issue(f, i); err != nil {
				runErr = fmt.Errorf("op %d: %w", i, err)
				return
			}
			h.RecordDuration(f.Now().Sub(start))
		}
	})
	if err := c.runToStop(30 * 60 * sim.Second); err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, runErr
	}
	if h.Count() < int64(ops) {
		return nil, fmt.Errorf("experiment timed out: %d/%d ops", h.Count(), ops)
	}
	return h, nil
}

// Report is one experiment's regenerated output.
type Report struct {
	ID     string
	Title  string
	Tables []*metrics.Table
	Notes  []string
}

// String renders the report.
func (r *Report) String() string {
	out := fmt.Sprintf("== %s: %s ==\n", r.ID, r.Title)
	for _, t := range r.Tables {
		out += "\n" + t.String()
	}
	for _, n := range r.Notes {
		out += "\nNote: " + n + "\n"
	}
	return out
}

// Scale selects run sizes: Quick for tests/benches, Full for paper-grade
// sample counts.
type Scale int

// Scales.
const (
	Quick Scale = iota + 1
	Full
)

func (s Scale) pick(quick, full int) int {
	if s == Full {
		return full
	}
	return quick
}

// runToStop runs the kernel until a driver calls StopRun or the horizon
// elapses; the perpetual tenant-load events never drain on their own.
func (c *cluster) runToStop(horizon sim.Duration) error {
	err := c.k.RunUntil(c.k.Now().Add(horizon))
	if err == sim.ErrStopped {
		return nil
	}
	return err
}

// messageSizes are Fig. 8's x-axis.
var messageSizes = []int{128, 256, 512, 1024, 2048, 4096, 8192}
