package experiments

import (
	"bytes"
	"fmt"

	"hyperloop/internal/metrics"
	"hyperloop/internal/protocol"
	"hyperloop/internal/report"
	"hyperloop/internal/shard"
	"hyperloop/internal/sim"
	"hyperloop/internal/topo"
	"hyperloop/internal/ycsb"
)

// Shards-experiment constants: a rack of shardServers machines hosting
// hundreds of independent replication groups (SR-IOV style — many NICs
// per server, one per shard replica), owned by shardTenants tenants with
// zipfian-skewed load. Small mirrors and shallow rings keep a
// 100-group × 3-NIC trial small in host memory.
const (
	shardReplicas  = 2
	shardServers   = 16
	shardCores     = 1 // scarce: replica handlers must queue for naive
	shardTenants   = 8
	shardSlotSize  = 128
	shardSlots     = 4
	shardLogSize   = 2048
	shardDepth     = 8
	shardValueSize = 64
	shardZipfTheta = 0.99
	// shardDevExtra covers rings/meta/staging past the mirror at offset 0.
	shardDevExtra = 64 << 10
)

// shardTenantOf maps shards to owners in contiguous blocks — tenant t
// owns a run of the Range-partitioned keyspace, so each tenant spans many
// groups and its shard IDs are decorrelated from any server stride.
func shardTenantOf(nShards, s int) int { return s * shardTenants / nShards }

// rack is one built deployment: a router over nShards groups placed
// across the rack's servers.
type rack struct {
	*topo.Rack
	router *shard.Router
}

// shardRack places nShards groups (protoName datapath) across the rack
// under the given placement policy, the router's coordinator group beside
// them, and wires a Range-policy router over them with exactly one key per
// shard (key k → shard k).
func shardRack(ar *trialArena, seed uint64, nShards int, protoName string, pol shard.PlacementPolicy) (*rack, error) {
	r, err := topo.Build(topo.Spec{
		Seed: seed, Servers: shardServers, Cores: shardCores, DevExtra: shardDevExtra, Alloc: ar,
	})
	if err != nil {
		return nil, err
	}
	place, err := shard.Place(pol, nShards, shardReplicas, shardServers,
		func(s int) int { return shardTenantOf(nShards, s) })
	if err != nil {
		return nil, err
	}
	cfg := shard.Config{
		Shards:        nShards,
		Policy:        shard.Range,
		Keys:          uint64(nShards),
		SlotSize:      shardSlotSize,
		SlotsPerShard: shardSlots,
		LogSize:       shardLogSize,
	}
	router, err := shard.New(cfg, shard.RackBackends(r, cfg, place, protocol.Named(protoName), protocol.Params{Depth: shardDepth}))
	if err != nil {
		return nil, err
	}
	return &rack{Rack: r, router: router}, nil
}

// tenantRes is one tenant leg's outcome: per-tenant latency and volume.
type tenantRes struct {
	ops  []int
	done []sim.Time // virtual finish time of each tenant's load
	hist []*metrics.Histogram
}

// shardTenantTrial drives zipfian-skewed tenant load over a full rack:
// ops operations are attributed to tenants by a Zipfian(theta=0.99) draw,
// then every shard runs its tenant's share on its own closed-loop fiber —
// all groups loaded concurrently, durable single-key puts. Tenants never
// share a group, so all interference arrives through shared server CPUs:
// the hot tenant's shards keep issuing long after cold tenants would be
// done, and where its replica handlers sit is exactly what placement
// decides.
func shardTenantTrial(ar *trialArena, seed uint64, nShards int, protoName string, pol shard.PlacementPolicy, ops int) (tenantRes, error) {
	r, err := shardRack(ar, seed, nShards, protoName, pol)
	if err != nil {
		return tenantRes{}, err
	}
	defer r.router.Close()

	rng := sim.NewRNG(seed)
	z := ycsb.NewZipfian(rng, shardTenants, shardZipfTheta)
	res := tenantRes{
		ops:  make([]int, shardTenants),
		done: make([]sim.Time, shardTenants),
		hist: make([]*metrics.Histogram, shardTenants),
	}
	for t := range res.hist {
		res.hist[t] = metrics.NewHistogram()
	}
	for i := 0; i < ops; i++ {
		res.ops[z.Next(shardTenants)]++
	}
	// Tenant t's ops split evenly over its own contiguous shard block.
	shardOps := make([]int, nShards)
	owned := make([]int, shardTenants)
	for s := 0; s < nShards; s++ {
		owned[shardTenantOf(nShards, s)]++
	}
	left := append([]int(nil), res.ops...)
	for s := 0; s < nShards; s++ {
		t := shardTenantOf(nShards, s)
		n := (left[t] + owned[t] - 1) / owned[t]
		shardOps[s] = n
		left[t] -= n
		owned[t]--
	}

	value := bytes.Repeat([]byte{0x5a}, shardValueSize)
	remaining := nShards
	var trialErr error
	for s := 0; s < nShards; s++ {
		s := s
		t := shardTenantOf(nShards, s)
		r.Kernel.Spawn(fmt.Sprintf("sh%d", s), func(f *sim.Fiber) {
			defer func() {
				if end := f.Now(); end > res.done[t] {
					res.done[t] = end
				}
				if remaining--; remaining == 0 {
					r.Kernel.StopRun()
				}
			}()
			for i := 0; i < shardOps[s]; i++ {
				start := f.Now()
				if err := r.router.Put(f, uint64(s), value); err != nil {
					if trialErr == nil {
						trialErr = fmt.Errorf("shard %d op %d: %w", s, i, err)
					}
					return
				}
				res.hist[t].RecordDuration(f.Now().Sub(start))
			}
		})
	}
	if err := r.Run(30*60*sim.Second, "", nil); err != nil {
		return tenantRes{}, err
	}
	if trialErr != nil {
		return tenantRes{}, trialErr
	}
	if got := int(r.router.Stats().Puts); got != ops {
		return tenantRes{}, fmt.Errorf("ran %d/%d puts", got, ops)
	}
	return res, nil
}

// txnRes is the cross-shard leg's outcome, one slot per txn span.
type txnRes struct {
	spans []int
	hist  []*metrics.Histogram
	stats shard.Stats
}

// shardTxnTrial measures cross-shard two-phase commit cost on an
// offloaded rack: closed-loop transactions spanning 1, 2 and 4 groups
// (prepare = lock, then replicated WAL append, per group; commit = execute
// with the unlock behind it, per group), shard sets rotating so every group
// participates.
func shardTxnTrial(ar *trialArena, seed uint64, nShards, txns int) (txnRes, error) {
	r, err := shardRack(ar, seed, nShards, "chain", shard.RoundRobin)
	if err != nil {
		return txnRes{}, err
	}
	defer r.router.Close()

	res := txnRes{spans: []int{1, 2, 4}}
	value := bytes.Repeat([]byte{0x7e}, shardValueSize)
	err = r.Run(30*60*sim.Second, "txn-driver", func(f *sim.Fiber) error {
		for si, span := range res.spans {
			h := metrics.NewHistogram()
			res.hist = append(res.hist, h)
			for i := 0; i < txns; i++ {
				writes := make([]shard.Write, span)
				base := (i*7 + si) % nShards
				for j := 0; j < span; j++ {
					writes[j] = shard.Write{Key: uint64((base + j) % nShards), Data: value}
				}
				start := f.Now()
				if err := r.router.Txn(f, writes); err != nil {
					return fmt.Errorf("span %d txn %d: %w", span, i, err)
				}
				h.RecordDuration(f.Now().Sub(start))
			}
		}
		return nil
	})
	if err != nil {
		return txnRes{}, err
	}
	res.stats = r.router.Stats()
	if want := uint64(len(res.spans) * txns); res.stats.Commits != want {
		return txnRes{}, fmt.Errorf("committed %d/%d txns", res.stats.Commits, want)
	}
	return res, nil
}

// shardsExp is the cluster-scale payoff: hundreds of independent
// replication groups behind one shard router on a simulated rack.
//
//  1. Tenant isolation: {chain, naive} × {round-robin, tenant-affinity}
//     placement under zipfian tenant skew. The NIC-offloaded chain is
//     placement-insensitive (replicas burn no host CPU — the SuperNIC
//     argument); the naive datapath contends for the rack's scarce cores,
//     so packing the hot tenant (affinity) shields cold tenants' p99.
//  2. Cross-shard transactions: 2PC latency vs span over the same rack.
func shardsExp(rc *runCtx, seed uint64, scale Scale) (*report.Report, error) {
	nShards := scale.pick(100, 256)
	ops := scale.pick(1600, 12800)
	txns := scale.pick(40, 320)

	type leg struct {
		proto string
		pol   shard.PlacementPolicy
	}
	legs := []leg{
		{"chain", shard.RoundRobin},
		{"chain", shard.TenantAffinity},
		{"naive", shard.RoundRobin},
		{"naive", shard.TenantAffinity},
	}
	// One trials call over all five legs so the whole rack sweep shares the
	// worker pool; the txn leg rides as the last index.
	type run struct {
		tenant tenantRes
		txn    txnRes
	}
	runs, err := trials(rc, len(legs)+1, func(i int, ar *trialArena) (run, error) {
		if i == len(legs) {
			r, err := shardTxnTrial(ar, seed, nShards, txns)
			if err != nil {
				return run{}, fmt.Errorf("txn leg: %w", err)
			}
			return run{txn: r}, nil
		}
		r, err := shardTenantTrial(ar, seed, nShards, legs[i].proto, legs[i].pol, ops)
		if err != nil {
			return run{}, fmt.Errorf("%s/%s: %w", legs[i].proto, legs[i].pol, err)
		}
		return run{tenant: r}, nil
	})
	if err != nil {
		return nil, err
	}
	txnRun := runs[len(legs)].txn

	iso := report.NewTable(
		fmt.Sprintf("Tenant isolation: %d groups × %d replicas on %d servers (%d cores each), zipf(%.2f) skew over %d tenants",
			nShards, shardReplicas, shardServers, shardCores, shardZipfTheta, shardTenants),
		report.Text("datapath"), report.Text("placement"), report.Count("tenant"), report.Count("ops"),
		report.Float("ops/ms", 1), report.Dur("p50"), report.Dur("p99"))
	for i, l := range legs {
		r := runs[i].tenant
		for t := 0; t < shardTenants; t++ {
			var rate any // missing for a tenant that finished no op
			if ms := float64(r.done[t]) / float64(sim.Millisecond); ms > 0 {
				rate = float64(r.ops[t]) / ms
			}
			iso.AddRow(l.proto, l.pol.String(), t, r.ops[t], rate,
				r.hist[t].PercentileDuration(50), r.hist[t].PercentileDuration(99))
		}
	}

	tp := report.NewTable(
		fmt.Sprintf("Cross-shard transactions: 2PC over chain groups, %d txns per span", txns),
		report.Count("span"), report.Count("txns"), report.Dur("avg"), report.Dur("p99"))
	for si, span := range txnRun.spans {
		tp.AddRow(span, txnRun.hist[si].Count(),
			txnRun.hist[si].MeanDuration(), txnRun.hist[si].PercentileDuration(99))
	}

	return &report.Report{
		ID: "shards", Title: "Sharded scale-out: placement, tenant skew, cross-shard 2PC",
		Tables: []*report.Table{iso, tp},
		Notes: []string{
			fmt.Sprintf("cross-shard commits: %d of %d spanned >1 group; every participant takes its lock (no-wait), then appends, then executes with the unlock riding behind, each round on all chains at the same time",
				txnRun.stats.CrossShard, txnRun.stats.Commits),
			"chain replicas are NIC-offloaded, so placement barely moves tenant latency; naive handlers queue on the rack's cores and round-robin spreads the hot tenant's interference to everyone",
			"tenants never share a group: all interference is infrastructure (CPU scheduling), the isolation SuperNIC argues NIC offload buys",
		},
	}, nil
}
