package experiments

import (
	"fmt"

	"hyperloop/internal/docstore"
	"hyperloop/internal/kvstore"
	"hyperloop/internal/metrics"
	"hyperloop/internal/naive"
	"hyperloop/internal/protocol"
	"hyperloop/internal/sim"
	"hyperloop/internal/topo"
	"hyperloop/internal/ycsb"
)

// softDB wraps a store adapter with the client-side database software
// overhead (query parsing, memtable/index updates, session bookkeeping)
// that the paper calls out as the dominant remaining latency under
// HyperLoop ("mostly due to the high overhead inherent to MongoDB's
// software stack in the client"). The client is a dedicated process, so
// this is plain CPU time, not contended scheduling.
type softDB struct {
	inner ycsb.DB
	cost  sim.Duration
	rng   *sim.RNG
}

func newSoftDB(inner ycsb.DB, cost sim.Duration, seed uint64) *softDB {
	return &softDB{inner: inner, cost: cost, rng: sim.NewRNG(seed)}
}

// pause models exponentially distributed client software time around the
// configured mean — parsing, memtable/index work, allocator churn.
func (s *softDB) pause(f *sim.Fiber, mean sim.Duration) {
	f.Sleep(sim.Duration(s.rng.Exp(float64(mean))))
}

func (s *softDB) Read(f *sim.Fiber, key int) error {
	s.pause(f, s.cost/2) // reads skip journaling work
	return s.inner.Read(f, key)
}

func (s *softDB) Update(f *sim.Fiber, key int, v []byte) error {
	s.pause(f, s.cost)
	return s.inner.Update(f, key, v)
}

func (s *softDB) Insert(f *sim.Fiber, key int, v []byte) error {
	s.pause(f, s.cost)
	return s.inner.Insert(f, key, v)
}

func (s *softDB) Scan(f *sim.Fiber, start, count int) error {
	s.pause(f, s.cost/2)
	return s.inner.Scan(f, start, count)
}

func (s *softDB) ReadModifyWrite(f *sim.Fiber, key int, v []byte) error {
	s.pause(f, s.cost)
	return s.inner.ReadModifyWrite(f, key, v)
}

var _ ycsb.DB = (*softDB)(nil)

// replicaSet is one tenant's replicated document store chain spread over
// the shared servers — the unit Fig. 2 scales.
type replicaSet struct {
	st *docstore.Store
	mu sim.Mutex // primary applies journal records serially (oplog order)
}

// fig2Point is one Fig. 2 trial's outcome: the merged update latency and
// the context switches across the servers' schedulers.
type fig2Point struct {
	h   *metrics.Histogram
	ctx int64
}

// fig2Trial builds nSets document-store chains across 3 shared servers
// with cores cores each, all on the naive (CPU-driven) backend — the §2.2
// motivation setup — loads every set, then drives an OPEN-loop update
// stream against each (one op submitted per interval, applied serially per
// set like an oplog). Past the saturation knee the per-set apply queue
// grows and latency blows up — the Fig. 2 mechanism.
func fig2Trial(ar *trialArena, seed uint64, nSets, cores, recordCount, opCount int) (fig2Point, error) {
	const servers = 3
	c, err := topo.Build(topo.Spec{
		Seed: seed, Servers: servers, Cores: cores, DevExtra: devExtra, Alloc: ar,
	})
	if err != nil {
		return fig2Point{}, err
	}
	dcfg := docstore.Config{LogSize: 64 * 1024, DataSize: 512 * 1024, SlotSize: 1536}
	// Fig. 2's replicas are full document-database processes (mongod):
	// applying one journal record costs ~100µs of CPU (BSON decode, index
	// update, two-phase commit bookkeeping), not the bare message-forwarding
	// cost of the microbenchmark baseline.
	mongod := naive.Builder(func(ncfg *naive.Config) {
		ncfg.RecvHandlerCPU = 30 * sim.Microsecond
		ncfg.PostCPU = 5 * sim.Microsecond
	})
	sets := make([]*replicaSet, nSets)
	for i := range sets {
		gs := topo.GroupSpec{
			Name: fmt.Sprintf("set%d", i), Servers: topo.FirstServers(servers),
			Mirror: docstore.MirrorSizeFor(dcfg),
		}
		g, err := c.Group(gs, mongod, protocol.Params{})
		if err != nil {
			return fig2Point{}, err
		}
		st, err := docstore.Open(g, dcfg)
		if err != nil {
			return fig2Point{}, err
		}
		sets[i] = &replicaSet{st: st}
	}

	const interval = 1 * sim.Millisecond
	merged := metrics.NewHistogram()
	var firstErr error
	remaining := nSets * opCount
	loaded := 0
	for i, set := range sets {
		rng := sim.NewRNG(seed + uint64(i)*7919)
		value := func() []byte {
			v := make([]byte, 256)
			for j := range v {
				v[j] = byte('a' + rng.Intn(26))
			}
			return v
		}
		c.Kernel.Spawn(fmt.Sprintf("set-%d-load", i), func(f *sim.Fiber) {
			for r := 0; r < recordCount; r++ {
				doc := docstore.Doc{"_id": ycsb.Key(r), "field0": string(value())}
				if err := set.st.Insert(f, "usertable", doc); err != nil {
					if firstErr == nil {
						firstErr = fmt.Errorf("load: %w", err)
					}
					return
				}
			}
			loaded++
			if loaded < nSets {
				return
			}
			// All sets loaded: start the open-loop update streams.
			for j := range sets {
				rng2 := sim.NewRNG(seed + 31*uint64(j) + 5)
				for op := 0; op < opCount; op++ {
					at := f.Now().Add(sim.Duration(op) * interval).Add(sim.Duration(rng2.Intn(1000)) * sim.Microsecond)
					c.Kernel.At(at, func() {
						c.Kernel.Spawn(fmt.Sprintf("set-%d-op-%d", j, op), func(fo *sim.Fiber) {
							defer func() {
								remaining--
								if remaining == 0 {
									c.Kernel.StopRun()
								}
							}()
							start := fo.Now()
							set := sets[j]
							set.mu.Lock(fo)
							err := set.st.Update(fo, "usertable", ycsb.Key(rng2.Intn(recordCount)),
								docstore.Doc{"field0": string(value())})
							set.mu.Unlock()
							if err != nil {
								if firstErr == nil {
									firstErr = fmt.Errorf("update: %w", err)
								}
								return
							}
							merged.RecordDuration(fo.Now().Sub(start))
						})
					})
				}
			}
		})
	}
	if err := c.Run(60*60*sim.Second, "", nil); err != nil {
		return fig2Point{}, err
	}
	if firstErr != nil {
		return fig2Point{}, firstErr
	}
	if remaining > 0 {
		return fig2Point{}, fmt.Errorf("fig2: %d ops did not finish", remaining)
	}
	var ctx int64
	for _, s := range c.Scheds {
		ctx += s.ContextSwitches()
	}
	return fig2Point{h: merged, ctx: ctx}, nil
}

// Fig2a regenerates Figure 2(a): document-store latency and normalized
// context switches vs replica-sets per server (CPU contention from
// co-located tenants alone — no artificial stress).
func fig2a(rc *runCtx, seed uint64, scale Scale) (*Report, error) {
	setCounts := []int{3, 9, 15, 21, 27}
	if scale == Quick {
		setCounts = []int{3, 9, 15}
	}
	recordCount := scale.pick(20, 60)
	opCount := scale.pick(40, 200)
	cores := scale.pick(2, 4) // places the saturation knee inside each sweep

	points, err := trials(rc, len(setCounts), func(j int, ar *trialArena) (fig2Point, error) {
		p, err := fig2Trial(ar, seed, setCounts[j], cores, recordCount, opCount)
		if err != nil {
			return p, fmt.Errorf("sets=%d: %w", setCounts[j], err)
		}
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	var maxCtx int64
	for _, p := range points {
		maxCtx = max(maxCtx, p.ctx)
	}
	tbl := metrics.NewTable("Figure 2(a): latency vs replica-sets (naive replication)",
		"replica-sets", "avg", "p95", "p99", "ctx-switches", "normalized")
	for j, p := range points {
		tbl.AddRow(setCounts[j], p.h.MeanDuration(), p.h.PercentileDuration(95), p.h.PercentileDuration(99), p.ctx,
			fmt.Sprintf("%.2f", float64(p.ctx)/float64(max(maxCtx, 1))))
	}
	first, last := points[0].h.MeanDuration(), points[len(points)-1].h.MeanDuration()
	return &Report{
		ID: "fig2a", Title: "CPU contention vs replica-sets (Fig. 2a)",
		Tables: []*metrics.Table{tbl},
		Notes: []string{fmt.Sprintf(
			"avg latency grows %.1fx from %d to %d replica-sets; context switches grow with co-location (paper: monotone growth)",
			float64(last)/float64(max(first, 1)), setCounts[0], setCounts[len(setCounts)-1])},
	}, nil
}

// Fig2b regenerates Figure 2(b): latency vs cores per machine at a fixed
// replica-set count.
func fig2b(rc *runCtx, seed uint64, scale Scale) (*Report, error) {
	coreCounts := []int{2, 4, 8, 16}
	nSets := scale.pick(9, 18)
	recordCount := scale.pick(20, 40)
	opCount := scale.pick(40, 150)

	points, err := trials(rc, len(coreCounts), func(j int, ar *trialArena) (fig2Point, error) {
		p, err := fig2Trial(ar, seed, nSets, coreCounts[j], recordCount, opCount)
		if err != nil {
			return p, fmt.Errorf("cores=%d: %w", coreCounts[j], err)
		}
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	tbl := metrics.NewTable(fmt.Sprintf("Figure 2(b): latency vs cores (%d replica-sets)", nSets),
		"cores", "avg", "p95", "p99", "ctx-switches")
	for j, p := range points {
		tbl.AddRow(coreCounts[j], p.h.MeanDuration(), p.h.PercentileDuration(95),
			p.h.PercentileDuration(99), p.ctx)
	}
	first, last := points[0].h.MeanDuration(), points[len(points)-1].h.MeanDuration()
	return &Report{
		ID: "fig2b", Title: "More cores relieve contention (Fig. 2b)",
		Tables: []*metrics.Table{tbl},
		Notes: []string{fmt.Sprintf(
			"avg latency falls %.1fx from 2 to 16 cores (paper: monotone decrease)",
			float64(first)/float64(max(last, 1)))},
	}, nil
}

// runYCSB loads and runs one workload against db within cluster c.
func runYCSB(c *cluster, db ycsb.DB, rcfg ycsb.RunnerConfig) (*ycsb.Result, error) {
	var res *ycsb.Result
	err := c.Run(60*60*sim.Second, "ycsb", func(f *sim.Fiber) error {
		r := ycsb.NewRunner(rcfg)
		if err := r.Load(f, db); err != nil {
			return err
		}
		var err error
		res, err = r.Run(f, db)
		return err
	})
	return res, err
}

// Fig11 regenerates Figure 11: replicated RocksDB-like store under
// YCSB-A updates — Naive-Event vs Naive-Polling vs HyperLoop, with
// multi-tenant co-location.
func fig11(rc *runCtx, seed uint64, scale Scale) (*Report, error) {
	kcfg := kvstore.DefaultConfig()
	mirror := kvstore.MirrorSizeFor(kcfg)
	rcfg := ycsb.RunnerConfig{
		Workload:    ycsb.WorkloadA,
		RecordCount: scale.pick(50, 200),
		OpCount:     scale.pick(300, 3000),
		ValueSize:   1024,
		Seed:        seed,
	}
	backends := []Backend{BackendNaiveEvent, BackendNaivePolling, BackendHyperLoop}
	hists, err := trials(rc, len(backends), func(j int, ar *trialArena) (*metrics.Histogram, error) {
		c, err := backendCluster(ar, seed, backends[j], 3, mirror, true)
		if err != nil {
			return nil, err
		}
		db, err := kvstore.Open(c.group, kcfg)
		if err != nil {
			return nil, err
		}
		res, err := runYCSB(c, newSoftDB(ycsb.KV(db), 100*sim.Microsecond, seed+3), rcfg)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", backends[j], err)
		}
		return res.ByOp[ycsb.OpUpdate], nil
	})
	if err != nil {
		return nil, err
	}
	tbl := metrics.NewTable("Figure 11: replicated KV store, YCSB-A update latency",
		"impl", "avg", "p95", "p99")
	var tails = make(map[Backend]sim.Duration)
	for j, b := range backends {
		h := hists[j]
		tails[b] = h.PercentileDuration(99)
		tbl.AddRow(b.String(), h.MeanDuration(), h.PercentileDuration(95), h.PercentileDuration(99))
	}
	return &Report{
		ID: "fig11", Title: "KV store update latency across backends (Fig. 11)",
		Tables: []*metrics.Table{tbl},
		Notes: []string{
			fmt.Sprintf("hyperloop p99 is %s lower than naive-event and %s lower than naive-polling (paper: 5.7x and 24.2x)",
				metrics.Ratio(tails[BackendNaiveEvent], tails[BackendHyperLoop]),
				metrics.Ratio(tails[BackendNaivePolling], tails[BackendHyperLoop])),
		},
	}, nil
}

// Fig12 regenerates Figure 12: document store latency across YCSB
// workloads A, B, D, E and F — native (CPU-driven polling) vs HyperLoop.
func fig12(rc *runCtx, seed uint64, scale Scale) (*Report, error) {
	dcfg := docstore.DefaultConfig()
	mirror := docstore.MirrorSizeFor(dcfg)
	recordCount := scale.pick(40, 150)
	opCount := scale.pick(150, 1500)

	workloads := ycsb.Workloads()
	backends := []Backend{BackendNaivePolling, BackendHyperLoop}
	results, err := trials(rc, len(workloads)*len(backends), func(j int, ar *trialArena) (*ycsb.Result, error) {
		w, backend := workloads[j/len(backends)], backends[j%len(backends)]
		c, err := backendCluster(ar, seed, backend, 3, mirror, true)
		if err != nil {
			return nil, err
		}
		st, err := docstore.Open(c.group, dcfg)
		if err != nil {
			return nil, err
		}
		res, err := runYCSB(c, newSoftDB(ycsb.Doc(st), 500*sim.Microsecond, seed+5), ycsb.RunnerConfig{
			Workload:    w,
			RecordCount: recordCount,
			OpCount:     opCount,
			ValueSize:   512,
			Seed:        seed,
		})
		if err != nil {
			return nil, fmt.Errorf("%v %s: %w", backend, w.Name, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	native := metrics.NewTable("Figure 12(a): native (CPU-polling) replication",
		"workload", "avg", "p95", "p99")
	hyper := metrics.NewTable("Figure 12(b): HyperLoop replication",
		"workload", "avg", "p95", "p99")
	var avgReduction, gapReduction float64
	var writeWorkloads int
	for wi, w := range workloads {
		nres, hres := results[wi*len(backends)], results[wi*len(backends)+1]
		nh, hh := nres.Overall, hres.Overall
		native.AddRow(w.Name, nh.MeanDuration(), nh.PercentileDuration(95), nh.PercentileDuration(99))
		hyper.AddRow(w.Name, hh.MeanDuration(), hh.PercentileDuration(95), hh.PercentileDuration(99))

		// Track insert/update improvements (the paper's headline metric).
		for _, op := range []ycsb.OpType{ycsb.OpUpdate, ycsb.OpInsert, ycsb.OpModify} {
			nOp, hOp := nres.ByOp[op], hres.ByOp[op]
			if nOp.Count() == 0 || hOp.Count() == 0 {
				continue
			}
			avgReduction += 1 - float64(hOp.Mean())/float64(nOp.Mean())
			nGap := float64(nOp.Percentile(99) - int64(nOp.Mean()))
			hGap := float64(hOp.Percentile(99) - int64(hOp.Mean()))
			if nGap > 0 {
				gapReduction += 1 - hGap/nGap
			}
			writeWorkloads++
		}
	}
	if writeWorkloads > 0 {
		avgReduction /= float64(writeWorkloads)
		gapReduction /= float64(writeWorkloads)
	}
	return &Report{
		ID: "fig12", Title: "Document store latency across YCSB workloads (Fig. 12)",
		Tables: []*metrics.Table{native, hyper},
		Notes: []string{
			fmt.Sprintf("insert/update average latency reduced by %.0f%% (paper: up to 79%%)", 100*avgReduction),
			fmt.Sprintf("avg-to-p99 gap reduced by %.0f%% (paper: up to 81%%)", 100*gapReduction),
		},
	}, nil
}

// Table3 prints the YCSB workload definitions used throughout §6.2.
func table3(*runCtx, uint64, Scale) (*Report, error) {
	tbl := metrics.NewTable("Table 3: YCSB workload operation mix (%)",
		"workload", "read", "update", "insert", "modify", "scan", "distribution")
	for _, w := range ycsb.Workloads() {
		tbl.AddRow(w.Name,
			fmt.Sprintf("%.0f", 100*w.Read), fmt.Sprintf("%.0f", 100*w.Update),
			fmt.Sprintf("%.0f", 100*w.Insert), fmt.Sprintf("%.0f", 100*w.Modify),
			fmt.Sprintf("%.0f", 100*w.Scan), w.Dist.String())
	}
	return &Report{
		ID: "table3", Title: "YCSB workloads (Table 3)",
		Tables: []*metrics.Table{tbl},
	}, nil
}
