// Command ycsb-run drives a YCSB workload against the replicated KV store
// or document store over a chosen replication backend.
//
// Usage:
//
//	ycsb-run -db kv -workload A -backend hyperloop -records 200 -ops 2000
//	ycsb-run -db doc -workload B -backend naive-event -load
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	root "hyperloop"
	"hyperloop/internal/docstore"
	"hyperloop/internal/kvstore"
	"hyperloop/internal/report"
	"hyperloop/internal/sim"
	"hyperloop/internal/txn"
	"hyperloop/internal/ycsb"
)

func main() {
	if _, err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ycsb-run:", err)
		os.Exit(1)
	}
}

// shardDB adapts the shard router: every key lives on one of N
// independent replication groups, read-modify-writes go through the
// cross-shard transaction path, and scans degrade to point gets (hash
// sharding scatters adjacent keys).
type shardDB struct{ r *root.ShardRouter }

func (a shardDB) Read(f *sim.Fiber, key int) error {
	v, err := a.r.Get(uint64(key))
	if err != nil {
		return err
	}
	if v == nil {
		return fmt.Errorf("missing key %d", key)
	}
	return nil
}
func (a shardDB) Update(f *sim.Fiber, key int, v []byte) error {
	return a.r.Put(f, uint64(key), v)
}
func (a shardDB) Insert(f *sim.Fiber, key int, v []byte) error {
	return a.r.Put(f, uint64(key), v)
}
func (a shardDB) Scan(f *sim.Fiber, start, count int) error {
	for i := 0; i < count; i++ {
		if _, err := a.r.Get(uint64(start + i)); err != nil {
			return err
		}
	}
	return nil
}
func (a shardDB) ReadModifyWrite(f *sim.Fiber, key int, v []byte) error {
	if err := a.Read(f, key); err != nil {
		return err
	}
	return a.r.Txn(f, []root.ShardWrite{{Key: uint64(key), Data: v}})
}

// shardProtocol maps the legacy backend names onto registry protocols for
// sharded runs. The registry's naive datapath is event-driven; run rejects
// the polling and pinned variants before it gets here.
func shardProtocol(backend string) string {
	switch backend {
	case "hyperloop":
		return "chain"
	case "naive-event":
		return "naive"
	default:
		return backend
	}
}

// run executes one workload, prints the latency table to out and returns
// it; split from main so tests can drive flag combinations and read the
// table's cells.
func run(args []string, out io.Writer) (*report.Table, error) {
	fs := flag.NewFlagSet("ycsb-run", flag.ContinueOnError)
	var (
		dbKind   = fs.String("db", "kv", "store under test: kv | doc")
		workload = fs.String("workload", "A", "YCSB workload: A | B | D | E | F")
		backend  = fs.String("backend", "hyperloop", "replication backend: hyperloop | naive-event | naive-polling | naive-pinned, or a registered protocol ("+strings.Join(root.Protocols(), " | ")+")")
		records  = fs.Int("records", 200, "preloaded record count")
		ops      = fs.Int("ops", 2000, "operation count")
		valSize  = fs.Int("value", 1024, "value size in bytes")
		seed     = fs.Uint64("seed", 1, "simulation seed")
		replicas = fs.Int("replicas", 3, "replica chain length")
		load     = fs.Bool("load", true, "apply multi-tenant CPU load on replicas (not available with -shards > 1)")
		shards   = fs.Int("shards", 1, "partition the keyspace across N independent replication groups (>1 routes ops through the shard router's own key-value store: -db must be kv, and of the naive backends only naive-event exists)")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q (flags must precede it; a boolean flag takes its value as -load=false)", fs.Arg(0))
	}
	if *shards < 1 {
		return nil, fmt.Errorf("-shards must be >= 1, got %d", *shards)
	}
	if *replicas < 1 {
		return nil, fmt.Errorf("-replicas must be >= 1, got %d", *replicas)
	}
	if *shards > 1 {
		if *dbKind != "kv" {
			return nil, fmt.Errorf("-db %s is not available with -shards %d: the shard router has its own key-value store", *dbKind, *shards)
		}
		if *backend == "naive-polling" || *backend == "naive-pinned" {
			return nil, fmt.Errorf("-backend %s is not available with -shards %d: sharded groups come from the protocol registry, whose naive datapath is naive-event", *backend, *shards)
		}
		var loadSet bool // -load defaults to true, so only an explicit one is rejected
		fs.Visit(func(f *flag.Flag) { loadSet = loadSet || f.Name == "load" })
		if loadSet {
			return nil, fmt.Errorf("-load is not available with -shards %d: a sharded cluster carries no tenant load", *shards)
		}
	}

	w, err := ycsb.ByName(*workload)
	if err != nil {
		return nil, err
	}

	var (
		db      ycsb.DB
		runSim  func(func(f *root.Fiber) error) error
		storeID string
	)
	if *shards > 1 {
		// Enough slots for every preloaded record plus worst-case inserts,
		// with hash-imbalance headroom.
		slots := (*records+*ops)*2/(*shards) + 32
		sc, err := root.NewShardedCluster(root.ShardedClusterConfig{
			Seed:             *seed,
			Shards:           *shards,
			ReplicasPerShard: *replicas,
			Protocol:         shardProtocol(*backend),
			Routing: root.ShardRoutingConfig{
				SlotSize:      *valSize,
				SlotsPerShard: slots,
				LogSize:       4*(*valSize) + 1024,
			},
		})
		if err != nil {
			return nil, err
		}
		defer sc.Close()
		db = shardDB{r: sc.Router()}
		runSim = sc.Run
		storeID = fmt.Sprintf("sharded×%d", *shards)
	} else {
		cluster, err := root.NewCluster(root.ClusterConfig{
			Seed:            *seed,
			Replicas:        *replicas,
			MultiTenantLoad: *load,
			DeviceSize:      64 << 20,
		})
		if err != nil {
			return nil, err
		}
		runSim = cluster.Run
		storeID = *dbKind
		switch *dbKind {
		case "kv":
			kcfg := kvstore.DefaultConfig()
			group, err := makeGroup(cluster, *backend, kvstore.MirrorSizeFor(kcfg))
			if err != nil {
				return nil, err
			}
			kv, err := kvstore.Open(group, kcfg)
			if err != nil {
				return nil, err
			}
			db = ycsb.KV(kv)
		case "doc":
			dcfg := docstore.DefaultConfig()
			group, err := makeGroup(cluster, *backend, docstore.MirrorSizeFor(dcfg))
			if err != nil {
				return nil, err
			}
			st, err := docstore.Open(group, dcfg)
			if err != nil {
				return nil, err
			}
			db = ycsb.Doc(st)
		default:
			return nil, fmt.Errorf("unknown -db %q (kv|doc)", *dbKind)
		}
	}

	runner := ycsb.NewRunner(ycsb.RunnerConfig{
		Workload:    w,
		RecordCount: *records,
		OpCount:     *ops,
		ValueSize:   *valSize,
		Seed:        *seed,
	})
	var result *ycsb.Result
	err = runSim(func(f *root.Fiber) error {
		if err := runner.Load(f, db); err != nil {
			return err
		}
		var rerr error
		result, rerr = runner.Run(f, db)
		return rerr
	})
	if err != nil {
		return nil, err
	}

	tbl := report.NewTable(
		fmt.Sprintf("YCSB-%s on %s store, %s backend (%d records, %d ops)",
			w.Name, storeID, *backend, *records, *ops),
		report.Text("operation"), report.Count("count"), report.Dur("avg"), report.Dur("p95"), report.Dur("p99"), report.Dur("max"))
	for _, op := range []ycsb.OpType{ycsb.OpRead, ycsb.OpUpdate, ycsb.OpInsert, ycsb.OpModify, ycsb.OpScan} {
		h := result.ByOp[op]
		if h.Count() == 0 {
			continue
		}
		s := h.Summarize()
		tbl.AddRow(op.String(), s.Count, s.Mean, s.P95, s.P99, s.Max)
	}
	s := result.Overall.Summarize()
	tbl.AddRow("overall", s.Count, s.Mean, s.P95, s.P99, s.Max)
	fmt.Fprintln(out, tbl)
	if result.Errors > 0 {
		fmt.Fprintf(out, "errors: %d\n", result.Errors)
	}
	return tbl, nil
}

func makeGroup(c *root.Cluster, backend string, mirror int) (txn.Replicator, error) {
	switch backend {
	case "hyperloop":
		return c.NewGroup(mirror)
	case "naive-event":
		return c.NewNaiveGroup(mirror, root.NaiveEvent)
	case "naive-polling":
		return c.NewNaiveGroup(mirror, root.NaivePolling)
	case "naive-pinned":
		return c.NewNaiveGroup(mirror, root.NaivePinned)
	default:
		// Any registered replication protocol works as a backend; the
		// legacy names above predate the protocol registry.
		g, err := c.NewProtocolGroup(backend, mirror)
		if err != nil {
			return nil, fmt.Errorf("unknown backend %q: %v", backend, err)
		}
		return g, nil
	}
}
