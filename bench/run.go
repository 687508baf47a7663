package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"hyperloop/internal/sim"
)

// runConfig is everything one run takes from its caller.
type runConfig struct {
	workload workload
	seed     uint64
	// seconds is how long the timed phase measures on the host clock. The
	// phase always covers the virtual window, and ends at the first batch
	// boundary past both.
	seconds float64
	trace   bool
	// setupReps is how many times the deployment is built and preloaded;
	// setup_s is the median and the first build is the one measured.
	setupReps int
	// probeScale scales the iteration counts of the layer probes.
	probeScale float64
	// outDir receives the trace file of a traced run.
	outDir string
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is what one run (one process, in the suite) produced. Metrics
// holds every metric the run can report; the ones metrics.go marks exact
// must repeat bit for bit for one seed and one commit.
type runResult struct {
	Workload    string           `json:"workload"`
	Seed        uint64           `json:"seed"`
	Trace       bool             `json:"trace"`
	Attempted   int64            `json:"attempted"`
	Failed      int64            `json:"failed"`
	Correct     bool             `json:"correct"`
	TimedOps    int              `json:"timed_ops"`
	WindowOps   int              `json:"window_ops"`
	Writes      int              `json:"window_writes"` // samples behind the virt_write_* percentiles
	WarmOps     int              `json:"warm_ops"`
	Batches     int              `json:"batches"`
	RunSeconds  float64          `json:"run_seconds"`
	TraceFile   string           `json:"trace_file,omitempty"`
	Metrics     map[string]value `json:"metrics"`
	FirstErrors []string         `json:"first_errors,omitempty"`
}

// counters is a snapshot of every layer's public counters.
type counters struct {
	events             int64
	msgs, wireBytes    int64
	nvmWrites, flushes int64
	ctxSwitches, wakes int64
	checkpoints        int64
	// shard-2pc only: committed transactions, those over more than one
	// shard, and aborted ones.
	commits, crossShard, aborts uint64
	virt                        sim.Time
}

func snapshot(d *deployment, t *tap) counters {
	c := counters{events: d.kernel.Executed(), virt: d.kernel.Now(), checkpoints: d.checkpoints()}
	c.msgs, c.wireBytes = d.fabric.Stats()
	for _, n := range t.nics {
		w, f, _ := n.Memory().Stats()
		c.nvmWrites += w
		c.flushes += f
	}
	for _, s := range d.scheds {
		c.ctxSwitches += s.ContextSwitches()
		c.wakes += s.Wakes()
	}
	if d.router != nil {
		st := d.router.Stats()
		c.commits, c.crossShard, c.aborts = st.Commits, st.CrossShard, st.Aborts
	}
	return c
}

// batch is the host-side measurement of one batch of ops.
type batch struct {
	traced  bool
	ns      int64
	allocKB float64
}

// run executes one workload once: set-up, untimed warm-up, the timed
// phase, the read-back check, and in a traced run the layer probes.
func run(cfg runConfig) (*runResult, error) {
	began := time.Now()
	w := cfg.workload
	if w.windowOps%w.batchOps != 0 {
		return nil, fmt.Errorf("%s: window of %d ops is not whole batches of %d", w.name, w.windowOps, w.batchOps)
	}
	res := &runResult{Workload: w.name, Seed: cfg.seed, Trace: cfg.trace,
		WindowOps: w.windowOps, WarmOps: w.windowOps / 20, Metrics: map[string]value{}}
	fail := func(err error) {
		res.Failed++
		if len(res.FirstErrors) < 5 {
			res.FirstErrors = append(res.FirstErrors, err.Error())
		}
	}

	rng := sim.NewRNG(cfg.seed)
	pay := newPayloads(rng.Fork(), w.records)
	loadVals := make([]uint8, w.records)
	for i := range loadVals {
		loadVals[i] = uint8(rng.Intn(poolSize))
	}

	// Set-up: build cluster + group + store and preload every record.
	setup := func() (*deployment, *tap, float64, error) {
		start := time.Now()
		t := newTap()
		d, err := w.build(cfg.seed, t, pay)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("%s: build: %w", w.name, err)
		}
		err = d.run(func(f *sim.Fiber) error {
			for k := 0; k < w.records; k++ {
				if err := d.app.load(f, k, int(loadVals[k])); err != nil {
					return fmt.Errorf("preload key %d: %w", k, err)
				}
			}
			return nil
		})
		if err != nil {
			d.close()
			return nil, nil, 0, fmt.Errorf("%s: %w", w.name, err)
		}
		return d, t, time.Since(start).Seconds(), nil
	}
	d, t, firstSetup, err := setup()
	if err != nil {
		return nil, err
	}
	closeMeasured := sync.OnceFunc(d.close)
	defer closeMeasured()
	shadow := append([]uint8(nil), loadVals...)

	gen := newOpGen(w, rng.Fork(), d)
	ops := make([]op, w.batchOps)
	fill := func(n int) []op {
		for i := 0; i < n; i++ {
			gen.next(&ops[i])
		}
		return ops[:n]
	}

	var (
		writeLat  = make([]int64, 0, w.windowOps) // virtual ns per replicated op
		spanLat   [maxSpan + 1][]int64            // shard-2pc only: by txn span
		putLat    []int64                         // shard-2pc only: plain Router.Put
		pending   = make([]int64, 0, w.windowOps)
		batches   []batch
		done      int // timed ops so far
		winStart  counters
		winEnd    counters
		winHostNs int64
		peakRSS   float64
		span4Host []int64
		ms0, ms1  runtime.MemStats
	)

	// exec runs one slice of the op stream. Only the loop over ops is
	// inside the host-timed region; generating it was not.
	exec := func(f *sim.Fiber, batchOps []op, inWindow bool) {
		for i := range batchOps {
			o := &batchOps[i]
			var (
				err  error
				v0   = f.Now()
				h0   int64
				opID = done + i
			)
			if t.tracing {
				v0, h0 = t.beginOp(d.app.spanName(o), opID)
				err = d.app.do(f, o)
				hostNs := t.endOp(v0, h0)
				if o.kind == opTxn && o.n == maxSpan {
					span4Host = append(span4Host, hostNs)
				}
			} else {
				err = d.app.do(f, o)
			}
			res.Attempted++
			if inWindow {
				pending = append(pending, int64(d.kernel.Pending()))
			}
			if err != nil {
				fail(fmt.Errorf("op %d: %w", opID, err))
				continue
			}
			if o.kind == opRead {
				continue
			}
			for k := uint8(0); k < o.n; k++ {
				shadow[o.keys[k]] = o.vals[k]
			}
			if inWindow {
				lat := int64(f.Now().Sub(v0))
				writeLat = append(writeLat, lat)
				if o.kind == opTxn {
					spanLat[o.n] = append(spanLat[o.n], lat)
				} else if d.router != nil {
					putLat = append(putLat, lat)
				}
			}
		}
	}

	err = d.run(func(f *sim.Fiber) error {
		// Warm-up: first 5 % of the stream, untimed — device pages
		// faulted, the log ring wrapped, the first checkpoint done.
		for left := res.WarmOps; left > 0; {
			n := min(left, w.batchOps)
			exec(f, fill(n), false)
			left -= n
		}
		runtime.GC()

		t.counting = true
		winStart = snapshot(d, t)
		deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
		for done < w.windowOps || time.Now().Before(deadline) {
			next := fill(w.batchOps)
			inWindow := done < w.windowOps
			// In a traced run every other batch records spans, so traced
			// and untraced throughput are compared within one process.
			t.tracing = cfg.trace && len(batches)%2 == 0
			runtime.ReadMemStats(&ms0)
			start := time.Now()
			exec(f, next, inWindow)
			ns := int64(time.Since(start))
			runtime.ReadMemStats(&ms1)
			batches = append(batches, batch{traced: t.tracing, ns: ns,
				allocKB: float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024})
			t.tracing = false
			done += len(next)
			if inWindow {
				winHostNs += ns
				if done >= w.windowOps {
					winEnd = snapshot(d, t)
					t.counting = false
					// Read here, after a fixed amount of work, so that a
					// host fast enough to run more ops in the time left
					// does not report more memory for it.
					peakRSS = peakRSSMB()
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res.TimedOps = done
	res.Batches = len(batches)

	// Read every key back through the store API.
	for k := 0; k < w.records; k++ {
		res.Attempted++
		if err := d.app.verify(k, int(shadow[k])); err != nil {
			fail(err)
		}
	}
	if d.router != nil {
		if st := d.router.Stats(); st.InDoubt != 0 {
			fail(fmt.Errorf("router left %d transactions in doubt", st.InDoubt))
		}
	}
	if t.errors != 0 {
		fail(fmt.Errorf("%d group calls returned an error", t.errors))
	}
	res.Correct = res.Failed == 0

	// Set-up is repeated only now, after peak RSS has been read, so that is
	// one deployment's; a collection before each build, and a median that
	// one slow build cannot move.
	setups := []float64{firstSetup}
	closeMeasured()
	d = nil // the collector may have it before set-up is timed again
	for len(setups) < cfg.setupReps {
		runtime.GC()
		again, _, secs, err := setup()
		if err != nil {
			return nil, err
		}
		again.close()
		setups = append(setups, secs)
	}

	put := func(name string, v float64) { res.Metrics[name] = value{v, unitOf(name)} }

	// End-to-end, host clock.
	var (
		rates, allocs, tracedRates []float64
		tracedNs                   int64
	)
	for _, b := range batches {
		r := float64(w.batchOps) / (float64(b.ns) / 1e9)
		if b.traced {
			tracedRates = append(tracedRates, r)
			tracedNs += b.ns
			continue
		}
		rates = append(rates, r)
		allocs = append(allocs, b.allocKB/float64(w.batchOps))
	}
	put("host_ops_per_s", median(rates))
	put("host_alloc_kb_per_op", median(allocs))
	put("host_peak_rss_mb", peakRSS)
	put("setup_s", median(setups))

	// End-to-end, virtual clock: the window only.
	winVirt := winEnd.virt.Sub(winStart.virt)
	put("virt_ops_per_s", float64(w.windowOps)/winVirt.Seconds())
	put("virt_write_p50_us", quantile(writeLat, 0.50)/1e3)
	put("virt_write_p99_us", quantile(writeLat, 0.99)/1e3)
	put("virt_write_p999_us", quantile(writeLat, 0.999)/1e3)
	res.Writes = len(writeLat)

	// Per layer: counter deltas over the window, per op.
	perOp := func(delta int64) float64 { return float64(delta) / float64(w.windowOps) }
	events := winEnd.events - winStart.events
	put("sim.events_per_op", perOp(events))
	put("sim.host_ns_per_event", float64(winHostNs)/float64(events))
	// A queue length is a whole number: report the tick, not a point in it.
	put("sim.pending_p50", math.Ceil(quantile(pending, 0.50)-0.5))
	put("rdma.msgs_per_op", perOp(winEnd.msgs-winStart.msgs))
	put("rdma.wire_bytes_per_op", perOp(winEnd.wireBytes-winStart.wireBytes))
	put("nvm.writes_per_op", perOp(winEnd.nvmWrites-winStart.nvmWrites))
	put("nvm.flushes_per_op", perOp(winEnd.flushes-winStart.flushes))
	put("cpusim.ctx_switches_per_op", perOp(winEnd.ctxSwitches-winStart.ctxSwitches))
	put("cpusim.wakes_per_op", perOp(winEnd.wakes-winStart.wakes))
	put("kvstore.checkpoints", float64(winEnd.checkpoints-winStart.checkpoints))
	for p := 0; p < numPrims; p++ {
		put("protocol."+primNames[p]+"_per_op", perOp(t.calls[p]))
		put("protocol."+primNames[p]+"_virt_us", quantile(t.virtNs[p], 0.50)/1e3)
	}
	put("protocol.errors", float64(t.errors))
	// The shard.* rows exist on every workload so the metric set is
	// uniform; off shard-2pc they read 0.
	put("shard.put_virt_us", quantile(putLat, 0.50)/1e3)
	put("shard.txn_span1_virt_us", quantile(spanLat[1], 0.50)/1e3)
	put("shard.txn_span2_virt_us", quantile(spanLat[2], 0.50)/1e3)
	put("shard.txn_span4_virt_us", quantile(spanLat[4], 0.50)/1e3)
	var crossShare float64
	if commits := winEnd.commits - winStart.commits; commits > 0 {
		crossShare = float64(winEnd.crossShard-winStart.crossShard) / float64(commits)
	}
	put("shard.cross_shard_share", crossShare)
	put("shard.aborts", float64(winEnd.aborts-winStart.aborts))

	if cfg.trace {
		tracedOps := float64(t.tracedOps)
		put("protocol.below_host_us_per_op", float64(t.callHostNs)/1e3/tracedOps)
		put("app.self_host_us_per_op", float64(t.opHostNs-t.callHostNs)/1e3/tracedOps)
		put("app.self_virt_us_per_op", float64(t.opVirtNs-t.callVirtNs)/1e3/tracedOps)
		put("trace.host_us_per_op", float64(tracedNs)/1e3/tracedOps)
		put("trace.spans", float64(t.spanCount))
		put("trace.overhead_share", 1-median(tracedRates)/median(rates))
		put("shard.txn_span4_host_us", quantile(span4Host, 0.50)/1e3)
		if err := runProbes(cfg.seed, cfg.probeScale, put); err != nil {
			return nil, err
		}
		if res.TraceFile, err = writeTrace(cfg.outDir, w.name, cfg.seed, t.spans); err != nil {
			return nil, err
		}
	}
	res.RunSeconds = time.Since(began).Seconds()
	return res, nil
}

// peakRSSMB reads this process's VmHWM.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// writeTrace writes the spans kept in memory to <outDir>/trace-<workload>.json.
func writeTrace(outDir, workload string, seed uint64, spans []span) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Note     string `json:"note"`
		Spans    []span `json:"spans"`
	}{workload, seed,
		"parent is an index into spans, -1 for an app op; spans of one op share op; self time = duration - children",
		spans})
	if err != nil {
		return "", err
	}
	file := filepath.Join(outDir, "trace-"+workload+".json")
	return file, os.WriteFile(file, data, 0o644)
}
