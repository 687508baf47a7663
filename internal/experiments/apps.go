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

// fig2Cluster builds nSets document-store chains across 3 shared servers
// with coresPerServer cores each, all on the naive (CPU-driven) backend —
// the §2.2 motivation setup.
type fig2Cluster struct {
	*topo.Rack
	sets []*replicaSet

	recordCount int
	opCount     int
	seed        uint64
}

func newFig2Cluster(ar *trialArena, seed uint64, nSets, coresPerServer, recordCount, opCount int) (*fig2Cluster, error) {
	const servers = 3
	r, err := topo.Build(topo.Spec{
		Seed: seed, Servers: servers, Cores: coresPerServer, DevExtra: devExtra, Alloc: ar,
	})
	if err != nil {
		return nil, err
	}
	dcfg := docstore.Config{LogSize: 64 * 1024, DataSize: 512 * 1024, SlotSize: 1536}
	c := &fig2Cluster{Rack: r, recordCount: recordCount, opCount: opCount, seed: seed}
	// Fig. 2's replicas are full document-database processes (mongod):
	// applying one journal record costs ~100µs of CPU (BSON decode, index
	// update, two-phase commit bookkeeping), not the bare message-forwarding
	// cost of the microbenchmark baseline.
	mongod := naive.Builder(func(ncfg *naive.Config) {
		ncfg.RecvHandlerCPU = 30 * sim.Microsecond
		ncfg.PostCPU = 5 * sim.Microsecond
	})
	for i := 0; i < nSets; i++ {
		gs := topo.GroupSpec{
			Name: fmt.Sprintf("set%d", i), Servers: topo.FirstServers(servers),
			Mirror: docstore.MirrorSizeFor(dcfg),
		}
		g, err := r.Group(gs, mongod, protocol.Params{})
		if err != nil {
			return nil, err
		}
		st, err := docstore.Open(g, dcfg)
		if err != nil {
			return nil, err
		}
		c.sets = append(c.sets, &replicaSet{st: st})
	}
	return c, nil
}

// run loads every set, then drives an OPEN-loop update stream against each
// (one op submitted per interval, applied serially per set like an oplog).
// Past the saturation knee the per-set apply queue grows and latency blows
// up — the Fig. 2 mechanism. Returns the merged latency histogram.
func (c *fig2Cluster) run() (*metrics.Histogram, error) {
	const interval = 1 * sim.Millisecond
	merged := metrics.NewHistogram()
	var firstErr error
	remaining := len(c.sets) * c.opCount
	loaded := 0

	for i, set := range c.sets {
		i, set := i, set
		rng := sim.NewRNG(c.seed + uint64(i)*7919)
		value := func() []byte {
			v := make([]byte, 256)
			for j := range v {
				v[j] = byte('a' + rng.Intn(26))
			}
			return v
		}
		c.Kernel.Spawn(fmt.Sprintf("set-%d-load", i), func(f *sim.Fiber) {
			for r := 0; r < c.recordCount; r++ {
				doc := docstore.Doc{"_id": ycsb.Key(r), "field0": string(value())}
				if err := set.st.Insert(f, "usertable", doc); err != nil {
					if firstErr == nil {
						firstErr = fmt.Errorf("load: %w", err)
					}
					return
				}
			}
			loaded++
			if loaded < len(c.sets) {
				return
			}
			// All sets loaded: start the open-loop update streams.
			for j := range c.sets {
				j := j
				rng2 := sim.NewRNG(c.seed + 31*uint64(j) + 5)
				for op := 0; op < c.opCount; op++ {
					op := op
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
							set := c.sets[j]
							set.mu.Lock(fo)
							err := set.st.Update(fo, "usertable", ycsb.Key(rng2.Intn(c.recordCount)),
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
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if remaining > 0 {
		return nil, fmt.Errorf("fig2: %d ops did not finish", remaining)
	}
	return merged, nil
}

func (c *fig2Cluster) contextSwitches() int64 {
	var n int64
	for _, s := range c.Scheds {
		n += s.ContextSwitches()
	}
	return n
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

	type row struct {
		sets       int
		mean, p95  sim.Duration
		p99        sim.Duration
		ctxSwitch  int64
		normalized float64
	}
	rows := make([]row, len(setCounts))
	if err := forEach(rc, len(setCounts), func(j int, ar *trialArena) error {
		n := setCounts[j]
		c, err := newFig2Cluster(ar, seed, n, cores, recordCount, opCount)
		if err != nil {
			return err
		}
		h, err := c.run()
		if err != nil {
			return fmt.Errorf("sets=%d: %w", n, err)
		}
		rows[j] = row{
			sets: n, mean: h.MeanDuration(), p95: h.PercentileDuration(95),
			p99: h.PercentileDuration(99), ctxSwitch: c.contextSwitches(),
		}
		return nil
	}); err != nil {
		return nil, err
	}
	var maxCtx int64
	for _, r := range rows {
		if r.ctxSwitch > maxCtx {
			maxCtx = r.ctxSwitch
		}
	}
	tbl := metrics.NewTable("Figure 2(a): latency vs replica-sets (naive replication)",
		"replica-sets", "avg", "p95", "p99", "ctx-switches", "normalized")
	for _, r := range rows {
		tbl.AddRow(r.sets, r.mean, r.p95, r.p99, r.ctxSwitch,
			fmt.Sprintf("%.2f", float64(r.ctxSwitch)/float64(maxInt64(maxCtx, 1))))
	}
	grow := float64(rows[len(rows)-1].mean) / float64(maxInt64(int64(rows[0].mean), 1))
	return &Report{
		ID: "fig2a", Title: "CPU contention vs replica-sets (Fig. 2a)",
		Tables: []*metrics.Table{tbl},
		Notes: []string{fmt.Sprintf(
			"avg latency grows %.1fx from %d to %d replica-sets; context switches grow with co-location (paper: monotone growth)",
			grow, rows[0].sets, rows[len(rows)-1].sets)},
	}, nil
}

// Fig2b regenerates Figure 2(b): latency vs cores per machine at a fixed
// replica-set count.
func fig2b(rc *runCtx, seed uint64, scale Scale) (*Report, error) {
	coreCounts := []int{2, 4, 8, 16}
	nSets := scale.pick(9, 18)
	recordCount := scale.pick(20, 40)
	opCount := scale.pick(40, 150)

	type point struct {
		h   *metrics.Histogram
		ctx int64
	}
	points := make([]point, len(coreCounts))
	if err := forEach(rc, len(coreCounts), func(j int, ar *trialArena) error {
		cores := coreCounts[j]
		c, err := newFig2Cluster(ar, seed, nSets, cores, recordCount, opCount)
		if err != nil {
			return err
		}
		h, err := c.run()
		if err != nil {
			return fmt.Errorf("cores=%d: %w", cores, err)
		}
		points[j] = point{h: h, ctx: c.contextSwitches()}
		return nil
	}); err != nil {
		return nil, err
	}
	tbl := metrics.NewTable(fmt.Sprintf("Figure 2(b): latency vs cores (%d replica-sets)", nSets),
		"cores", "avg", "p95", "p99", "ctx-switches")
	var first, last sim.Duration
	for j, cores := range coreCounts {
		h := points[j].h
		if first == 0 {
			first = h.MeanDuration()
		}
		last = h.MeanDuration()
		tbl.AddRow(cores, h.MeanDuration(), h.PercentileDuration(95),
			h.PercentileDuration(99), points[j].ctx)
	}
	return &Report{
		ID: "fig2b", Title: "More cores relieve contention (Fig. 2b)",
		Tables: []*metrics.Table{tbl},
		Notes: []string{fmt.Sprintf(
			"avg latency falls %.1fx from 2 to 16 cores (paper: monotone decrease)",
			float64(first)/float64(maxInt64(int64(last), 1)))},
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
	hists := make([]*metrics.Histogram, len(backends))
	if err := forEach(rc, len(backends), func(j int, ar *trialArena) error {
		b := backends[j]
		c, err := backendCluster(ar, seed, b, 3, mirror, true)
		if err != nil {
			return err
		}
		db, err := kvstore.Open(c.group, kcfg)
		if err != nil {
			return err
		}
		res, err := runYCSB(c, newSoftDB(ycsb.KV(db), 100*sim.Microsecond, seed+3), rcfg)
		if err != nil {
			return fmt.Errorf("%v: %w", b, err)
		}
		hists[j] = res.ByOp[ycsb.OpUpdate]
		return nil
	}); err != nil {
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

	measure := func(ar *trialArena, backend Backend, w ycsb.Workload) (*ycsb.Result, error) {
		c, err := backendCluster(ar, seed, backend, 3, mirror, true)
		if err != nil {
			return nil, err
		}
		st, err := docstore.Open(c.group, dcfg)
		if err != nil {
			return nil, err
		}
		return runYCSB(c, newSoftDB(ycsb.Doc(st), 500*sim.Microsecond, seed+5), ycsb.RunnerConfig{
			Workload:    w,
			RecordCount: recordCount,
			OpCount:     opCount,
			ValueSize:   512,
			Seed:        seed,
		})
	}

	workloads := ycsb.Workloads()
	backends := []Backend{BackendNaivePolling, BackendHyperLoop}
	names := []string{"native", "hyperloop"}
	results := make([]*ycsb.Result, len(workloads)*len(backends))
	if err := forEach(rc, len(results), func(j int, ar *trialArena) error {
		wi, bi := j/len(backends), j%len(backends)
		r, err := measure(ar, backends[bi], workloads[wi])
		if err != nil {
			return fmt.Errorf("%s %s: %w", names[bi], workloads[wi].Name, err)
		}
		results[j] = r
		return nil
	}); err != nil {
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
