package hyperloop

import (
	"fmt"

	"hyperloop/internal/cpusim"
	"hyperloop/internal/protocol"
	"hyperloop/internal/rdma"
	"hyperloop/internal/shard"
	"hyperloop/internal/sim"
	"hyperloop/internal/topo"
	"hyperloop/internal/txn"
)

// Re-exported sharding types so downstream code needs only this package.
type (
	// ShardRouter partitions a keyspace across independent replication
	// groups; see internal/shard. Its Get returns a read-only view of the
	// owning shard's mirror, valid until the caller next yields or calls
	// Get again; a caller that keeps the value clones it.
	ShardRouter = shard.Router
	// ShardWrite is one key update inside a (possibly cross-shard)
	// transaction.
	ShardWrite = shard.Write
	// ShardStats counts router-level outcomes.
	ShardStats = shard.Stats
	// ShardRecoverStats reports what one Router.Recover pass resolved.
	ShardRecoverStats = shard.RecoverStats
	// ShardPolicy maps keys to shards (hash or range).
	ShardPolicy = shard.Policy
	// ShardPlacement maps shard replicas to rack servers.
	ShardPlacement = shard.PlacementPolicy
	// ShardRoutingConfig sizes a router's key→shard mapping and per-shard
	// stores.
	ShardRoutingConfig = shard.Config
	// TxnStep identifies one coordinator-side 2PC action; step hooks
	// (ShardRouter.SetTxnStepHook) receive it for crash injection. A
	// span-S transaction fires 3·S + 2 of them: S locks, S appends, the
	// commit record, S executes (each releasing its shard's lock behind
	// it), the posted truncate. Every per-shard phase runs on all shards
	// at once, so within it the firings come in virtual-time order, not
	// shard order; see txn.Step.
	TxnStep = txn.Step
)

// ErrTxnCoordinatorCrash is the sentinel a step hook returns to kill the
// coordinator mid-protocol; see txn.ErrCoordinatorCrash.
var ErrTxnCoordinatorCrash = txn.ErrCoordinatorCrash

// Shard routing and placement policies, and 2PC coordinator steps.
const (
	ShardHash           = shard.Hash
	ShardRange          = shard.Range
	PlaceRoundRobin     = shard.RoundRobin
	PlaceTenantAffinity = shard.TenantAffinity

	TxnStepLock        = txn.StepLock
	TxnStepAppend      = txn.StepAppend
	TxnStepLogCommit   = txn.StepLogCommit
	TxnStepExecute     = txn.StepExecute
	TxnStepLogTruncate = txn.StepLogTruncate
)

// ShardedClusterConfig sizes a sharded deployment: Shards independent
// replication groups placed across Servers machines. Every shard gets its
// own client NIC and per-replica NICs/devices (mirrors must start at
// device offset 0, so groups never share a device); servers contribute
// their CPU schedulers, hosting many NICs each, SR-IOV style.
type ShardedClusterConfig struct {
	// Seed drives all randomness; equal seeds reproduce runs exactly.
	Seed uint64
	// Shards is the number of partitions (default 4).
	Shards int
	// ReplicasPerShard is each group's chain length (default 3).
	ReplicasPerShard int
	// Servers is the rack size replicas are placed across (default
	// max(ReplicasPerShard, 4)).
	Servers int
	// CoresPerServer sizes each server's CPU (default 16).
	CoresPerServer int
	// Protocol names the registered replication protocol each group runs
	// (default "chain").
	Protocol string
	// Placement spreads replicas over servers (default PlaceRoundRobin).
	// PlaceTenantAffinity uses TenantOf to pack a tenant's shards.
	Placement ShardPlacement
	// TenantOf maps a shard to its owning tenant; only consulted by
	// PlaceTenantAffinity.
	TenantOf func(shard int) int
	// Routing configures the router's key→shard mapping and per-shard
	// store sizes; Routing.Shards is overwritten with Shards.
	Routing shard.Config
	// Deprecated: CommitLog is ignored. Every cluster has a coordinator
	// group holding the router's 2PC commit log.
	CommitLog bool
	// DeviceExtra is per-NIC device headroom past the mirror for rings and
	// staging buffers (default 1 MiB).
	DeviceExtra int
}

// ShardedCluster is a built sharded deployment: a topo.Rack and the router
// over the groups placed on it.
type ShardedCluster struct {
	rack   *topo.Rack
	router *shard.Router
}

// NewShardedCluster builds the deployment: a rack of servers, one
// replication group per shard placed across them plus the coordinator's
// (the router's 2PC commit log, replica j on server j), and a router over
// the groups.
func NewShardedCluster(cfg ShardedClusterConfig) (*ShardedCluster, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if cfg.ReplicasPerShard <= 0 {
		cfg.ReplicasPerShard = 3
	}
	if cfg.Servers <= 0 {
		cfg.Servers = max(cfg.ReplicasPerShard, 4)
	}
	if cfg.CoresPerServer <= 0 {
		cfg.CoresPerServer = 16
	}
	if cfg.Protocol == "" {
		cfg.Protocol = "chain"
	}
	if cfg.DeviceExtra <= 0 {
		cfg.DeviceExtra = 1 << 20
	}
	cfg.Routing.Shards = cfg.Shards

	rack, err := topo.Build(topo.Spec{
		Seed: cfg.Seed, Servers: cfg.Servers, Cores: cfg.CoresPerServer, DevExtra: cfg.DeviceExtra,
	})
	if err != nil {
		return nil, err
	}
	place, err := shard.Place(cfg.Placement, cfg.Shards, cfg.ReplicasPerShard, cfg.Servers, cfg.TenantOf)
	if err != nil {
		return nil, err
	}
	if cfg.Routing.MirrorSize() <= 0 {
		return nil, fmt.Errorf("hyperloop: invalid shard routing config")
	}
	router, err := shard.New(cfg.Routing, shard.RackBackends(rack, cfg.Routing, place, protocol.Named(cfg.Protocol), protocol.Params{}))
	if err != nil {
		return nil, err
	}
	return &ShardedCluster{rack: rack, router: router}, nil
}

// Router returns the shard router: Put/Get for single-key operations and
// Txn for atomic (cross-shard) transactions.
func (c *ShardedCluster) Router() *ShardRouter { return c.router }

// Kernel exposes the simulation kernel.
func (c *ShardedCluster) Kernel() *sim.Kernel { return c.rack.Kernel }

// Fabric exposes the RDMA fabric shared by all groups.
func (c *ShardedCluster) Fabric() *rdma.Fabric { return c.rack.Fabric }

// Schedulers returns each rack server's CPU scheduler.
func (c *ShardedCluster) Schedulers() []*cpusim.Scheduler {
	return append([]*cpusim.Scheduler(nil), c.rack.Scheds...)
}

// Run spawns fn as a fiber and drives the simulation until fn returns,
// mirroring Cluster.Run.
func (c *ShardedCluster) Run(fn func(f *Fiber) error) error {
	return c.rack.Run(runHorizon, "main", fn)
}

// Close tears down every replication group.
func (c *ShardedCluster) Close() { c.router.Close() }
