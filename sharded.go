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

// Shard routing policies and 2PC coordinator steps.
const (
	ShardHash  = shard.Hash
	ShardRange = shard.Range

	TxnStepLock        = txn.StepLock
	TxnStepAppend      = txn.StepAppend
	TxnStepLogCommit   = txn.StepLogCommit
	TxnStepExecute     = txn.StepExecute
	TxnStepLogTruncate = txn.StepLogTruncate
)

// ShardedClusterConfig sizes a sharded deployment: Shards independent
// replication groups placed round-robin across max(ReplicasPerShard, 4)
// servers (serverCores cores each). Every shard gets its own client NIC and
// per-replica NICs/devices, each with 1 MiB of headroom past the mirror
// for rings and staging buffers (mirrors must start at device offset 0,
// so groups never share a device); servers contribute their CPU
// schedulers, hosting many NICs each, SR-IOV style.
type ShardedClusterConfig struct {
	// Seed drives all randomness; equal seeds reproduce runs exactly.
	Seed uint64
	// Shards is the number of partitions (default 4).
	Shards int
	// ReplicasPerShard is each group's chain length (default 3).
	ReplicasPerShard int
	// Protocol names the registered replication protocol each group runs
	// (default "chain").
	Protocol string
	// Routing configures the router's key→shard mapping and per-shard
	// store sizes; Routing.Shards is overwritten with Shards.
	Routing shard.Config
	// Deprecated: CommitLog is ignored. Every cluster has a coordinator
	// group holding the router's 2PC commit log.
	CommitLog bool
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
	if cfg.Protocol == "" {
		cfg.Protocol = "chain"
	}
	cfg.Routing.Shards = cfg.Shards
	servers := max(cfg.ReplicasPerShard, 4)

	rack, err := topo.Build(topo.Spec{Seed: cfg.Seed, Servers: servers, Cores: serverCores, DevExtra: 1 << 20})
	if err != nil {
		return nil, err
	}
	place, err := shard.Place(shard.RoundRobin, cfg.Shards, cfg.ReplicasPerShard, servers, nil)
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
