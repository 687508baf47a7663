package experiments

import (
	"bytes"
	"fmt"
	"time"

	"hyperloop/internal/metrics"
	"hyperloop/internal/naive"
	"hyperloop/internal/protocol"
	"hyperloop/internal/sim"
	"hyperloop/internal/txn"
	"hyperloop/internal/wal"
)

// microMirror is the §6.1 microbenchmarks' mirrored region.
const microMirror = 1 << 20

// latencyTrial measures one (backend, size) latency point on its own
// private cluster — the self-contained unit forEach runs concurrently.
func latencyTrial(ar *trialArena, seed uint64, backend Backend, replicas, ops, size int,
	issue func(c *cluster, f *sim.Fiber, size, i int) error) (*metrics.Histogram, error) {
	c, err := backendCluster(ar, seed, backend, replicas, microMirror, true)
	if err != nil {
		return nil, err
	}
	return c.runLatency(ops, func(f *sim.Fiber, i int) error {
		return issue(c, f, size, i)
	})
}

// writeIssue performs one gWRITE of size bytes at a rotating offset.
func writeIssue(c *cluster, f *sim.Fiber, size, i int) error {
	off := (i % 32) * 16384
	if off+size > 1<<20 {
		off = 0
	}
	return c.group.Write(f, off, size, true)
}

// memcpyIssue performs one gMEMCPY of size bytes.
func memcpyIssue(c *cluster, f *sim.Fiber, size, i int) error {
	src := (i % 16) * 16384
	dst := 512 * 1024
	return c.group.Memcpy(f, src, dst, size, true)
}

// Fig8a regenerates Figure 8(a): average and 99th-percentile gWRITE
// latency vs message size, HyperLoop vs Naive-RDMA, group size 3, under
// multi-tenant load on the replicas.
func fig8a(rc *runCtx, seed uint64, scale Scale) (*Report, error) {
	return fig8(rc, seed, scale, "fig8a", "gWRITE latency vs message size (Fig. 8a)", writeIssue)
}

// Fig8b regenerates Figure 8(b): the same sweep for gMEMCPY.
func fig8b(rc *runCtx, seed uint64, scale Scale) (*Report, error) {
	return fig8(rc, seed, scale, "fig8b", "gMEMCPY latency vs message size (Fig. 8b)", memcpyIssue)
}

func fig8(rc *runCtx, seed uint64, scale Scale, id, title string,
	issue func(c *cluster, f *sim.Fiber, size, i int) error) (*Report, error) {
	ops := scale.pick(300, 10000)
	backends := []Backend{BackendNaiveEvent, BackendHyperLoop}
	// One job per (backend, size); each builds its own cluster, so the
	// trials run concurrently and merge in deterministic point order.
	hists := make([]*metrics.Histogram, len(backends)*len(messageSizes))
	err := forEach(rc, len(hists), func(j int, ar *trialArena) error {
		bi, si := j/len(messageSizes), j%len(messageSizes)
		h, err := latencyTrial(ar, seed+uint64(si), backends[bi], 3, ops, messageSizes[si], issue)
		if err != nil {
			return fmt.Errorf("%v size %d: %w", backends[bi], messageSizes[si], err)
		}
		hists[j] = h
		return nil
	})
	if err != nil {
		return nil, err
	}
	tbl := metrics.NewTable(title,
		"size", "naive avg", "naive p99", "hyperloop avg", "hyperloop p99", "p99 speedup")
	var worst string
	var worstRatio float64
	for si, size := range messageSizes {
		n, h := hists[si], hists[len(messageSizes)+si]
		ratio := float64(n.Percentile(99)) / float64(maxInt64(h.Percentile(99), 1))
		if ratio > worstRatio {
			worstRatio = ratio
			worst = metrics.FormatBytes(size)
		}
		tbl.AddRow(metrics.FormatBytes(size),
			n.MeanDuration(), n.PercentileDuration(99),
			h.MeanDuration(), h.PercentileDuration(99),
			metrics.Ratio(n.PercentileDuration(99), h.PercentileDuration(99)))
	}
	return &Report{
		ID: id, Title: title,
		Tables: []*metrics.Table{tbl},
		Notes: []string{fmt.Sprintf(
			"largest p99 reduction %.0fx at %s (paper reports up to ~800x for gWRITE, ~848x for gMEMCPY)",
			worstRatio, worst)},
	}, nil
}

// Table2 regenerates Table 2: gCAS latency statistics (avg/p95/p99) for
// Naive-RDMA vs HyperLoop.
func table2(rc *runCtx, seed uint64, scale Scale) (*Report, error) {
	ops := scale.pick(500, 10000)
	measure := func(ar *trialArena, backend Backend) (*metrics.Histogram, error) {
		c, err := backendCluster(ar, seed, backend, 3, microMirror, true)
		if err != nil {
			return nil, err
		}
		exec := []bool{true, true, true}
		val := uint64(0)
		return c.runLatency(ops, func(f *sim.Fiber, i int) error {
			_, err := c.group.CAS(f, 0, val, val+1, exec)
			val++
			return err
		})
	}
	backends := []Backend{BackendNaiveEvent, BackendHyperLoop}
	hists := make([]*metrics.Histogram, len(backends))
	if err := forEach(rc, len(backends), func(j int, ar *trialArena) error {
		h, err := measure(ar, backends[j])
		if err != nil {
			return err
		}
		hists[j] = h
		return nil
	}); err != nil {
		return nil, err
	}
	nh, hh := hists[0], hists[1]
	tbl := metrics.NewTable("Table 2: gCAS latency", "impl", "average", "p95", "p99")
	tbl.AddRow("Naive-RDMA", nh.MeanDuration(), nh.PercentileDuration(95), nh.PercentileDuration(99))
	tbl.AddRow("HyperLoop", hh.MeanDuration(), hh.PercentileDuration(95), hh.PercentileDuration(99))
	return &Report{
		ID: "table2", Title: "gCAS latency (Table 2)",
		Tables: []*metrics.Table{tbl},
		Notes: []string{
			"paper: naive 539µs/3928µs/11886µs vs hyperloop 10µs/13µs/14µs",
			fmt.Sprintf("measured p99 ratio: %s", metrics.Ratio(nh.PercentileDuration(99), hh.PercentileDuration(99))),
		},
	}, nil
}

// Fig9 regenerates Figure 9: gWRITE throughput and critical-path CPU
// consumption vs message size. Total transfer per point is scaled down
// from the paper's 1 GB (see EXPERIMENTS.md).
func fig9(rc *runCtx, seed uint64, scale Scale) (*Report, error) {
	sizes := []int{1024, 2048, 4096, 8192, 16384, 32768, 65536}
	totalBytes := scale.pick(2<<20, 64<<20)
	const window = 16

	type point struct {
		kops float64
		cpu  float64
	}
	measure := func(ar *trialArena, backend Backend, size int) (point, error) {
		c, err := backendCluster(ar, seed, backend, 3, microMirror, true)
		if err != nil {
			return point{}, err
		}
		ops := totalBytes / size
		if ops < window*2 {
			ops = window * 2
		}
		var start, end sim.Time
		err = c.Run(30*60*sim.Second, "tput-driver", func(f *sim.Fiber) error {
			start = f.Now()
			sigs := make([]*sim.Signal, 0, window)
			for i := 0; i < ops; i++ {
				off := (i % 8) * 65536
				sig, err := c.group.WriteAsync(off, size, true)
				if err != nil {
					return err
				}
				sigs = append(sigs, sig)
				if len(sigs) == window {
					if err := f.Await(sigs[0]); err != nil {
						return err
					}
					sigs = sigs[1:]
				}
			}
			if err := f.AwaitAll(sigs...); err != nil {
				return err
			}
			end = f.Now()
			return nil
		})
		if err != nil {
			return point{}, fmt.Errorf("%v size %d: %w", backend, size, err)
		}
		elapsed := end.Sub(start)
		if elapsed <= 0 {
			elapsed = time.Nanosecond
		}
		kops := float64(ops) / elapsed.Seconds() / 1000
		// Critical-path CPU: replica handler CPU as a fraction of one
		// core over the run (HyperLoop: identically zero).
		var handlerCPU sim.Duration
		if ng, ok := c.group.(*naive.Group); ok {
			handlerCPU = ng.ReplicaHandlerCPU()
		}
		cpu := 100 * float64(handlerCPU) / float64(elapsed) / 3
		return point{kops: kops, cpu: cpu}, nil
	}

	backends := []Backend{BackendNaivePinned, BackendHyperLoop}
	points := make([]point, len(sizes)*len(backends))
	if err := forEach(rc, len(points), func(j int, ar *trialArena) error {
		si, bi := j/len(backends), j%len(backends)
		p, err := measure(ar, backends[bi], sizes[si])
		if err != nil {
			return err
		}
		points[j] = p
		return nil
	}); err != nil {
		return nil, err
	}
	tbl := metrics.NewTable("Figure 9: gWRITE throughput and replica CPU",
		"size", "naive Kops/s", "naive CPU%", "hyperloop Kops/s", "hyperloop CPU%")
	for si, size := range sizes {
		np, hp := points[si*len(backends)], points[si*len(backends)+1]
		tbl.AddRow(metrics.FormatBytes(size),
			fmt.Sprintf("%.1f", np.kops), fmt.Sprintf("%.0f%%", np.cpu),
			fmt.Sprintf("%.1f", hp.kops), fmt.Sprintf("%.0f%%", hp.cpu))
	}
	return &Report{
		ID: "fig9", Title: "gWRITE throughput + critical-path CPU (Fig. 9)",
		Tables: []*metrics.Table{tbl},
		Notes: []string{
			"paper: comparable throughput; naive burns ~a full core per replica, hyperloop ~0%",
			fmt.Sprintf("total transfer per point scaled to %d MB (paper: 1 GB)", totalBytes>>20),
		},
	}, nil
}

// Fig10 regenerates Figure 10: p99 gWRITE latency vs message size for
// group sizes 3, 5 and 7, per backend.
func fig10(rc *runCtx, seed uint64, scale Scale) (*Report, error) {
	ops := scale.pick(200, 10000)
	groupSizes := []int{3, 5, 7}
	sizes := messageSizes

	backends := []Backend{BackendNaiveEvent, BackendHyperLoop}
	// Flatten the triple loop (backend × group size × message size) into one
	// job list; indexing keeps row/column assembly in deterministic order.
	hists := make([]*metrics.Histogram, len(backends)*len(groupSizes)*len(sizes))
	if err := forEach(rc, len(hists), func(j int, ar *trialArena) error {
		bi := j / (len(groupSizes) * len(sizes))
		gi := j / len(sizes) % len(groupSizes)
		si := j % len(sizes)
		backend, g, size := backends[bi], groupSizes[gi], sizes[si]
		h, err := latencyTrial(ar, seed+uint64(si), backend, g, ops, size,
			func(c *cluster, f *sim.Fiber, size, i int) error {
				return writeIssue(c, f, size, i)
			})
		if err != nil {
			return fmt.Errorf("%v G=%d size=%d: %w", backend, g, size, err)
		}
		hists[j] = h
		return nil
	}); err != nil {
		return nil, err
	}
	at := func(bi, gi, si int) *metrics.Histogram {
		return hists[(bi*len(groupSizes)+gi)*len(sizes)+si]
	}

	var tables []*metrics.Table
	growth := make(map[Backend]float64)
	for bi, backend := range backends {
		tbl := metrics.NewTable(fmt.Sprintf("Figure 10: p99 gWRITE latency, %v", backend),
			"size", "G=3", "G=5", "G=7", "G7/G3")
		var maxGrowth float64
		for si, size := range sizes {
			p3 := at(bi, 0, si).PercentileDuration(99)
			p5 := at(bi, 1, si).PercentileDuration(99)
			p7 := at(bi, 2, si).PercentileDuration(99)
			g := float64(p7) / float64(maxInt64(int64(p3), 1))
			if g > maxGrowth {
				maxGrowth = g
			}
			tbl.AddRow(metrics.FormatBytes(size), p3, p5, p7, fmt.Sprintf("%.2fx", g))
		}
		growth[backend] = maxGrowth
		tables = append(tables, tbl)
	}
	return &Report{
		ID: "fig10", Title: "p99 gWRITE latency vs group size (Fig. 10)",
		Tables: tables,
		Notes: []string{
			fmt.Sprintf("naive grows up to %.2fx from G=3 to G=7 (paper: up to 2.97x); hyperloop %.2fx (paper: flat)",
				growth[BackendNaiveEvent], growth[BackendHyperLoop]),
		},
	}, nil
}

// AblationNoLoad isolates the NIC-offload benefit from multi-tenant
// scheduling: with idle replica CPUs the naive baseline is competitive,
// showing the paper's point that the CPU *scheduling*, not raw CPU speed,
// causes the tail.
func ablationNoLoad(rc *runCtx, seed uint64, scale Scale) (*Report, error) {
	ops := scale.pick(300, 5000)
	measure := func(ar *trialArena, backend Backend, loaded bool) (*metrics.Histogram, error) {
		c, err := backendCluster(ar, seed, backend, 3, microMirror, loaded)
		if err != nil {
			return nil, err
		}
		return c.runLatency(ops, func(f *sim.Fiber, i int) error {
			return writeIssue(c, f, 1024, i)
		})
	}
	backends := []Backend{BackendNaiveEvent, BackendHyperLoop}
	loads := []bool{false, true}
	hists := make([]*metrics.Histogram, len(backends)*len(loads))
	if err := forEach(rc, len(hists), func(j int, ar *trialArena) error {
		h, err := measure(ar, backends[j/len(loads)], loads[j%len(loads)])
		if err != nil {
			return err
		}
		hists[j] = h
		return nil
	}); err != nil {
		return nil, err
	}
	tbl := metrics.NewTable("Ablation: co-located load on replica CPUs (1KB gWRITE)",
		"impl", "load", "avg", "p99")
	for bi, backend := range backends {
		for li, loaded := range loads {
			h := hists[bi*len(loads)+li]
			label := "idle"
			if loaded {
				label = "multi-tenant"
			}
			tbl.AddRow(backend.String(), label, h.MeanDuration(), h.PercentileDuration(99))
		}
	}
	return &Report{
		ID: "abl-load", Title: "Ablation: scheduling delay is the root cause",
		Tables: []*metrics.Table{tbl},
		Notes:  []string{"naive is µs-scale when idle; only co-located load separates the designs"},
	}, nil
}

// AblationFlush quantifies the durability (gFLUSH interleaving) cost.
func ablationFlush(rc *runCtx, seed uint64, scale Scale) (*Report, error) {
	ops := scale.pick(300, 5000)
	measure := func(ar *trialArena, durable bool) (*metrics.Histogram, error) {
		c, err := backendCluster(ar, seed, BackendHyperLoop, 3, microMirror, false)
		if err != nil {
			return nil, err
		}
		return c.runLatency(ops, func(f *sim.Fiber, i int) error {
			return c.group.Write(f, (i%16)*8192, 4096, durable)
		})
	}
	modes := []bool{false, true}
	hists := make([]*metrics.Histogram, len(modes))
	if err := forEach(rc, len(modes), func(j int, ar *trialArena) error {
		h, err := measure(ar, modes[j])
		if err != nil {
			return err
		}
		hists[j] = h
		return nil
	}); err != nil {
		return nil, err
	}
	vol, dur := hists[0], hists[1]
	tbl := metrics.NewTable("Ablation: interleaved gFLUSH cost (4KB gWRITE, G=3)",
		"mode", "avg", "p99")
	tbl.AddRow("volatile (no flush)", vol.MeanDuration(), vol.PercentileDuration(99))
	tbl.AddRow("durable (gFLUSH interleaved)", dur.MeanDuration(), dur.PercentileDuration(99))
	return &Report{
		ID: "abl-flush", Title: "Ablation: durability cost",
		Tables: []*metrics.Table{tbl},
		Notes:  []string{"durable writes pay per-hop NVM cache flushes before forwarding"},
	}, nil
}

// AblationDepth sweeps the pre-armed window depth against pipelined
// throughput — the design choice behind HyperLoop's pre-posted chains.
func ablationDepth(rc *runCtx, seed uint64, scale Scale) (*Report, error) {
	ops := scale.pick(400, 4000)
	measure := func(ar *trialArena, depth int) (float64, error) {
		c, err := newCluster(testbed(ar, seed, 3, false), protocol.Named("chain"),
			protocol.Params{MirrorSize: microMirror, Depth: depth})
		if err != nil {
			return 0, err
		}
		window := depth - 3
		if window < 1 {
			window = 1
		}
		var start, end sim.Time
		err = c.Run(60*sim.Second, "depth-driver", func(f *sim.Fiber) error {
			start = f.Now()
			var sigs []*sim.Signal
			for i := 0; i < ops; i++ {
				sig, err := c.group.WriteAsync((i%8)*4096, 1024, true)
				if err != nil {
					return err
				}
				sigs = append(sigs, sig)
				if len(sigs) >= window {
					if err := f.Await(sigs[0]); err != nil {
						return err
					}
					sigs = sigs[1:]
				}
			}
			if err := f.AwaitAll(sigs...); err != nil {
				return err
			}
			end = f.Now()
			return nil
		})
		if err != nil {
			return 0, fmt.Errorf("depth %d: %w", depth, err)
		}
		return float64(ops) / end.Sub(start).Seconds() / 1000, nil
	}
	depths := []int{4, 8, 16, 32, 64}
	kops := make([]float64, len(depths))
	if err := forEach(rc, len(depths), func(j int, ar *trialArena) error {
		k, err := measure(ar, depths[j])
		if err != nil {
			return err
		}
		kops[j] = k
		return nil
	}); err != nil {
		return nil, err
	}
	tbl := metrics.NewTable("Ablation: pre-armed window depth vs pipelined gWRITE throughput (1KB)",
		"depth", "Kops/s")
	for j, depth := range depths {
		tbl.AddRow(depth, fmt.Sprintf("%.1f", kops[j]))
	}
	return &Report{
		ID: "abl-depth", Title: "Ablation: chain window depth",
		Tables: []*metrics.Table{tbl},
		Notes:  []string{"deeper pre-armed windows admit more pipelining until the wire saturates"},
	}, nil
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// AblationFanout compares the chain topology against the §7 fan-out
// extension: latency is comparable, but fan-out concentrates transmission
// (and active write QPs) on the primary while the chain load-balances —
// the trade-off §7 discusses.
func ablationFanout(rc *runCtx, seed uint64, scale Scale) (*Report, error) {
	ops := scale.pick(300, 5000)
	const size = 1024
	type res struct {
		h         *metrics.Histogram
		primaryTx int64
		maxTx     int64
	}
	measure := func(ar *trialArena, fan bool) (res, error) {
		proto := "chain"
		if fan {
			proto = "fanout"
		}
		c, err := newCluster(testbed(ar, seed, 3, false), protocol.Named(proto), protocol.Params{MirrorSize: microMirror})
		if err != nil {
			return res{}, err
		}
		h, err := c.runLatency(ops, func(f *sim.Fiber, i int) error {
			return c.group.Write(f, (i%16)*8192, size, true)
		})
		if err != nil {
			return res{}, err
		}
		var primaryTx, maxTx int64
		for i, nic := range c.nics() {
			_, tx := nic.Stats()
			if i == 0 {
				primaryTx = tx
			}
			if tx > maxTx {
				maxTx = tx
			}
		}
		return res{h: h, primaryTx: primaryTx, maxTx: maxTx}, nil
	}
	topos := []bool{false, true}
	results := make([]res, len(topos))
	if err := forEach(rc, len(topos), func(j int, ar *trialArena) error {
		r, err := measure(ar, topos[j])
		if err != nil {
			return err
		}
		results[j] = r
		return nil
	}); err != nil {
		return nil, err
	}
	chain, fan := results[0], results[1]
	tbl := metrics.NewTable("Ablation: chain vs fan-out topology (1KB durable gWRITE, G=3)",
		"topology", "avg", "p99", "head/primary TX", "max member TX")
	tbl.AddRow("chain", chain.h.MeanDuration(), chain.h.PercentileDuration(99),
		metrics.FormatBytes(int(chain.primaryTx)), metrics.FormatBytes(int(chain.maxTx)))
	tbl.AddRow("fan-out", fan.h.MeanDuration(), fan.h.PercentileDuration(99),
		metrics.FormatBytes(int(fan.primaryTx)), metrics.FormatBytes(int(fan.maxTx)))
	return &Report{
		ID: "abl-fanout", Title: "Ablation: replication topology (§7)",
		Tables: []*metrics.Table{tbl},
		Notes: []string{
			"fan-out shortens the dependency chain but concentrates transmission on the primary;",
			"chain replication keeps at most one active write QP per member (§7's load-balance argument)",
		},
	}, nil
}

// AblationConsistency quantifies §7's claim that the primitives compose
// into weaker models: full ACID transactions, eventually-consistent reads
// (log execution off the critical path), RAMCloud-like semantics (skip the
// durability primitive), and replicated-cache semantics (no log at all).
//
// This experiment stays serial: all four modes deliberately share one
// cluster and one txn store (the spectrum is measured on the same state),
// so the trials are not independent jobs forEach could run concurrently.
func ablationConsistency(rc *runCtx, seed uint64, scale Scale) (*Report, error) {
	ops := scale.pick(300, 5000)
	tbl, err := ablationConsistencyTable(rc, seed, ops)
	if err != nil {
		return nil, err
	}
	return &Report{
		ID: "abl-consistency", Title: "Ablation: weaker consistency models (§7)",
		Tables: []*metrics.Table{tbl},
		Notes: []string{
			"each dropped guarantee removes group operations from the critical path,",
			"recovering RAMCloud/Memcached-like latency from the same primitive set",
		},
	}, nil
}

// ablationConsistencyTable runs the four modes on one shared cluster,
// checked out of the arena pool like a single long trial.
func ablationConsistencyTable(rc *runCtx, seed uint64, ops int) (*metrics.Table, error) {
	var tbl *metrics.Table
	err := withArena(rc, func(ar *trialArena) error {
		c, err := backendCluster(ar, seed, BackendHyperLoop, 3, microMirror, false)
		if err != nil {
			return err
		}
		st, err := txn.New(c.group, txn.Config{LogSize: 64 * 1024, DataSize: 128 * 1024})
		if err != nil {
			return err
		}
		entry := func(i int) []wal.Entry {
			return []wal.Entry{{Off: (i % 64) * 512, Data: bytes.Repeat([]byte{byte(i)}, 256)}}
		}
		modes := []struct {
			name string
			op   func(f *sim.Fiber, i int) error
		}{
			{"ACID txn (log+lock+execute+flush)", func(f *sim.Fiber, i int) error {
				if err := st.WrLock(f); err != nil {
					return err
				}
				if _, err := st.Append(f, entry(i)); err != nil {
					return err
				}
				_, err := st.ExecuteAllAndUnlock(f)
				return err
			}},
			{"eventual reads (append only, execute off-path)", func(f *sim.Fiber, i int) error {
				if _, err := st.Append(f, entry(i)); err != nil {
					return err
				}
				// Drain off the critical path every 16 ops so the log never fills.
				if i%16 == 15 {
					if _, err := st.ExecuteAll(f); err != nil {
						return err
					}
				}
				return nil
			}},
			{"RAMCloud-like (no durability primitive)", func(f *sim.Fiber, i int) error {
				return c.group.Write(f, (i%64)*1024, 256, false)
			}},
			{"replicated cache (gWRITE only)", func(f *sim.Fiber, i int) error {
				return c.group.Write(f, (i%64)*1024, 256, false)
			}},
		}
		tbl = metrics.NewTable("Ablation: consistency spectrum on HyperLoop primitives (§7)",
			"mode", "avg", "p99")
		for _, m := range modes {
			h := metrics.NewHistogram()
			err := c.Run(60*sim.Second, "mode-driver", func(f *sim.Fiber) error {
				for i := 0; i < ops; i++ {
					start := f.Now()
					if err := m.op(f, i); err != nil {
						return fmt.Errorf("%s op %d: %w", m.name, i, err)
					}
					h.RecordDuration(f.Now().Sub(start))
				}
				return nil
			})
			if err != nil {
				return err
			}
			tbl.AddRow(m.name, h.MeanDuration(), h.PercentileDuration(99))
		}
		return nil
	})
	return tbl, err
}
