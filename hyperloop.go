// Package hyperloop is a full reproduction of "HyperLoop: Group-Based
// NIC-Offloading to Accelerate Replicated Transactions in Multi-Tenant
// Storage Systems" (SIGCOMM 2018) as a deterministic simulation library.
//
// Because the paper's artifact requires Mellanox RNICs with the
// CORE-Direct WAIT verb, a patched libmlx4 and battery-backed DRAM, this
// library substitutes a verbs-level software RNIC model (see DESIGN.md):
// queue pairs with binary WQE rings in registered memory, WAIT-gated
// pre-posted chains, remote work-request manipulation via receive scatter,
// NVM with explicit flush durability, and a CFS-like multi-tenant CPU
// scheduler for the baseline's replica handlers.
//
// The package is a facade over the building blocks in internal/: it wires
// a simulated cluster and exposes the replication groups (HyperLoop and
// Naive-RDMA), the transaction layer, and the two storage applications
// (a RocksDB-like KV store and a MongoDB-like document store).
//
// Quickstart:
//
//	c, _ := hyperloop.NewCluster(hyperloop.ClusterConfig{Replicas: 3})
//	g, _ := c.NewGroup(1 << 20)
//	c.Run(func(f *hyperloop.Fiber) error {
//	    g.WriteLocal(0, []byte("hello"))
//	    return g.Write(f, 0, 5, true) // replicated + durable on 3 replicas
//	})
package hyperloop

import (
	"hyperloop/internal/cpusim"
	hl "hyperloop/internal/hyperloop"
	"hyperloop/internal/naive"
	"hyperloop/internal/protocol"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
	"hyperloop/internal/topo"
)

// Re-exported core types so downstream code needs only this package.
type (
	// Fiber is a cooperative coroutine driven by the simulation kernel;
	// blocking group operations take one.
	Fiber = sim.Fiber
	// Signal is a one-shot completion notification for async operations.
	Signal = sim.Signal
	// Group is a HyperLoop (NIC-offloaded) replication group, what
	// NewGroup and NewGroupOver build.
	Group = hl.Group
	// NaiveGroup is the CPU-driven Naive-RDMA baseline group, what
	// NewNaiveGroup builds.
	NaiveGroup = naive.Group
	// NaiveMode selects how baseline replica CPUs pick up completions.
	NaiveMode = naive.Mode
	// NIC is a simulated RDMA NIC.
	NIC = rdma.NIC
	// Scheduler is a server's CPU scheduler.
	Scheduler = cpusim.Scheduler
)

// Baseline replica CPU modes.
const (
	NaiveEvent   = naive.ModeEvent
	NaivePolling = naive.ModePolling
	NaivePinned  = naive.ModePinned
)

// ClusterConfig sizes a simulated deployment.
type ClusterConfig struct {
	// Seed drives all randomness; equal seeds reproduce runs exactly.
	Seed uint64
	// Replicas is the chain length (default 3).
	Replicas int
	// CoresPerServer sizes each storage server's CPU (default 16).
	CoresPerServer int
	// DeviceSize is each machine's NVM capacity (default 16 MiB).
	DeviceSize int
	// MultiTenantLoad co-locates ~10 bursty tenant processes per core
	// plus stress hogs on every storage server, reproducing the paper's
	// environment. Only CPU-driven groups are affected (NewNaiveGroup, the
	// registry's "naive") — that is the point.
	MultiTenantLoad bool
}

// Cluster is a simulated deployment: one client machine and N storage
// servers connected by an RDMA fabric — a topo.Rack holding one set of
// machines that every group constructor below builds over.
type Cluster struct {
	rack *topo.Rack
	env  protocol.Env
}

// runHorizon bounds Cluster.Run and ShardedCluster.Run in virtual time.
const runHorizon = 3600 * sim.Second

// NewCluster builds the deployment.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Replicas <= 0 {
		cfg.Replicas = 3
	}
	if cfg.CoresPerServer <= 0 {
		cfg.CoresPerServer = 16
	}
	if cfg.DeviceSize <= 0 {
		cfg.DeviceSize = 16 << 20
	}
	spec := topo.Spec{
		Seed: cfg.Seed, Servers: cfg.Replicas, Cores: cfg.CoresPerServer,
		DevExtra: cfg.DeviceSize, // the machines exist before any mirror is sized
	}
	if cfg.MultiTenantLoad {
		spec.TenantsPerCore = 10
	}
	rack, err := topo.Build(spec)
	if err != nil {
		return nil, err
	}
	env, err := rack.Env(topo.GroupSpec{Servers: topo.FirstServers(cfg.Replicas)})
	if err != nil {
		return nil, err
	}
	return &Cluster{rack: rack, env: env}, nil
}

// Kernel exposes the simulation kernel (timers, fibers, virtual clock).
func (c *Cluster) Kernel() *sim.Kernel { return c.rack.Kernel }

// Fabric exposes the RDMA fabric.
func (c *Cluster) Fabric() *rdma.Fabric { return c.rack.Fabric }

// ClientNIC returns the client machine's NIC.
func (c *Cluster) ClientNIC() *rdma.NIC { return c.env.Client }

// ReplicaNICs returns the storage servers' NICs in chain order.
func (c *Cluster) ReplicaNICs() []*rdma.NIC {
	return append([]*rdma.NIC(nil), c.env.Replicas...)
}

// Schedulers returns each storage server's CPU scheduler.
func (c *Cluster) Schedulers() []*cpusim.Scheduler {
	return append([]*cpusim.Scheduler(nil), c.rack.Scheds...)
}

// NewGroup builds a HyperLoop (NIC-offloaded) replication group — the
// registry's "chain" — whose mirrored region spans mirrorSize bytes on
// every member.
func (c *Cluster) NewGroup(mirrorSize int) (Protocol, error) {
	return c.NewProtocolGroup("chain", mirrorSize)
}

// NewNaiveGroup builds the Naive-RDMA baseline group: the same chain, but
// replica CPUs on the critical path in the given mode. Under
// MultiTenantLoad the handlers also carry the per-tenant wakeup-placement
// penalty (DESIGN.md, "multi-tenant latency model").
func (c *Cluster) NewNaiveGroup(mirrorSize int, mode NaiveMode) (Protocol, error) {
	tune := func(cfg *naive.Config) { cfg.Mode = mode }
	return c.rack.GroupOver(c.env, naive.Builder(tune), protocol.Params{MirrorSize: mirrorSize})
}

// Run spawns fn as a fiber, drives the simulation until fn returns (or the
// horizon passes), and returns fn's error. It is the main entry point for
// programs using the library.
func (c *Cluster) Run(fn func(f *Fiber) error) error { return c.rack.Run(runHorizon, "main", fn) }

// NewGroupOver builds a HyperLoop group over an explicit replica chain —
// for example after failover replaced a member (see examples/failover).
func (c *Cluster) NewGroupOver(replicas []*rdma.NIC, mirrorSize int) (Protocol, error) {
	env := c.env
	env.Replicas = replicas
	return c.rack.GroupOver(env, protocol.Named("chain"), protocol.Params{MirrorSize: mirrorSize})
}

// Protocol is the replication-strategy interface every group implements;
// see internal/protocol for the contract.
type Protocol = protocol.Protocol

// ProtocolParams is the policy half of a protocol build: mirror size,
// window depth, timeout/retry, quorum.
type ProtocolParams = protocol.Params

// Protocols returns the names of all registered replication protocols,
// sorted (chain, fanout, bcast, bcast-maj, naive, plus any registered by
// downstream packages).
func Protocols() []string { return protocol.Names() }

// DescribeProtocol returns a protocol's one-line description ("" if
// unknown).
func DescribeProtocol(name string) string { return protocol.Describe(name) }

// NewProtocolGroup builds the named replication protocol over the
// cluster's servers with default policy.
func (c *Cluster) NewProtocolGroup(name string, mirrorSize int) (Protocol, error) {
	return c.NewProtocolGroupWithParams(name, protocol.Params{MirrorSize: mirrorSize})
}

// NewProtocolGroupWithParams builds the named protocol with full policy
// control. Under MultiTenantLoad a CPU-driven protocol carries the same
// wake penalty NewNaiveGroup applies.
func (c *Cluster) NewProtocolGroupWithParams(name string, p protocol.Params) (Protocol, error) {
	return c.rack.GroupOver(c.env, protocol.Named(name), p)
}
