package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// smokeRun runs one workload in-process at a few hundred ops.
func smokeRun(t *testing.T, w workload, seed uint64, trace bool) *runResult {
	t.Helper()
	return smokeRunFor(t, w, seed, trace, 0)
}

// smokeRunFor goes on past the window until seconds of host time are up.
func smokeRunFor(t *testing.T, w workload, seed uint64, trace bool, seconds float64) *runResult {
	t.Helper()
	w.windowOps, w.batchOps = 300, 100
	res, err := run(runConfig{workload: w, seed: seed, seconds: seconds, trace: trace,
		setupReps: 1, probeScale: 0.001, outDir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v", w.name, seed, trace, err)
	}
	if !res.Correct {
		t.Fatalf("%s seed %d trace %v: %d of %d ops failed: %v",
			w.name, seed, trace, res.Failed, res.Attempted, res.FirstErrors)
	}
	return res
}

// sameExact fails if an exact metric both runs report differs.
func sameExact(t *testing.T, what string, a, b *runResult) {
	t.Helper()
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			va, inA := a.Metrics[d.name]
			vb, inB := b.Metrics[d.name]
			if d.exact && inA && inB && va.Value != vb.Value {
				t.Errorf("%s: %s %s = %v and %v", a.Workload, what, d.name, va.Value, vb.Value)
			}
		}
	}
}

func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		first := smokeRun(t, w, 1, false)
		again := smokeRun(t, w, 1, false)
		traced := smokeRun(t, w, 1, true)
		other := smokeRun(t, w, 2, false)

		for _, d := range endToEnd {
			if v, ok := first.Metrics[d.name]; !ok || v.Unit != d.unit || v.Value == 0 {
				t.Errorf("%s: end-to-end metric %s = %+v, want a non-zero value in %s", w.name, d.name, v, d.unit)
			}
		}
		for _, d := range perLayer {
			if v, ok := traced.Metrics[d.name]; !ok || v.Unit != d.unit {
				t.Errorf("%s: per-layer metric %s = %+v, want a value in %s", w.name, d.name, v, d.unit)
			}
		}
		sameExact(t, "two runs of one seed:", first, again)
		sameExact(t, "tracing off and on:", first, traced)
		if first.Metrics["virt_ops_per_s"] == other.Metrics["virt_ops_per_s"] {
			t.Errorf("%s: seeds 1 and 2 gave the same virt_ops_per_s — the seed does not reach the op stream", w.name)
		}

		// The layer mix is what the README's table says it is.
		m := traced.Metrics
		chainOnly := w.name == "kv-chain" || w.name == "shard-2pc"
		if got := m["cpusim.ctx_switches_per_op"].Value; chainOnly != (got == 0) {
			t.Errorf("%s: cpusim.ctx_switches_per_op = %v", w.name, got)
		}
		usesCAS := w.name == "doc-chain-tenants" || w.name == "shard-2pc"
		if got := m["protocol.gcas_per_op"].Value; usesCAS != (got > 0) {
			t.Errorf("%s: protocol.gcas_per_op = %v", w.name, got)
		}
		if got := m["app.self_virt_us_per_op"].Value; got != 0 {
			t.Errorf("%s: app.self_virt_us_per_op = %v, the stores model no CPU cost", w.name, got)
		}
		if w.name == "shard-2pc" {
			s1, s2, s4 := m["shard.txn_span1_virt_us"].Value, m["shard.txn_span2_virt_us"].Value, m["shard.txn_span4_virt_us"].Value
			if !(s4 > s2 && s2 > s1 && s1 > m["shard.put_virt_us"].Value) {
				t.Errorf("2PC cost by span: put %v, 1 %v, 2 %v, 4 %v", m["shard.put_virt_us"].Value, s1, s2, s4)
			}
		}
		if _, err := os.Stat(traced.TraceFile); err != nil {
			t.Errorf("%s: trace file: %v", w.name, err)
		}
	}
}

// TestExactMetricsIgnoreRunLength: what is marked exact is taken over the
// window alone, so a host that fits more ops into the run reports the same.
func TestExactMetricsIgnoreRunLength(t *testing.T) {
	for _, w := range workloads {
		window := smokeRun(t, w, 1, false)
		// Long enough to outlast the window, whatever the host and -race.
		longer := window
		for seconds := 0.05; longer.TimedOps <= window.TimedOps; seconds *= 4 {
			longer = smokeRunFor(t, w, 1, false, seconds)
		}
		sameExact(t, "the window alone and a longer run:", window, longer)
	}
}

// TestBenchmarkJSON holds BENCHMARK.json and the tables in metrics.go and
// workload.go equal.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v", spec.Paths)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workload.go", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in workload.go", i, spec.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in metrics.go", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: %+v in BENCHMARK.json, %+v in metrics.go", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s %s: bound in BENCHMARK.json does not match %v", kind, d.name, d.bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
}

func TestQuantile(t *testing.T) {
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("no samples: %v", got)
	}
	// Four samples share the median tick 7; half of them lie below the
	// median position, so the estimate is the middle of the tick.
	if got := quantile([]int64{1, 7, 7, 7, 7, 9}, 0.5); got != 7 {
		t.Errorf("grouped median = %v, want 7", got)
	}
	if got := quantile([]int64{5, 1, 3, 2, 4}, 1); got != 5.5 {
		t.Errorf("p100 = %v, want the top of tick 5", got)
	}
}

func TestJudge(t *testing.T) {
	rate := metricDef{name: "host_ops_per_s", better: "higher", bound: 0.10}
	virt := metricDef{name: "virt_write_p99_us", better: "lower", bound: 0.10, exact: true}
	count := metricDef{name: "sim.events_per_op", better: "lower", exact: true}
	steady := func(v float64) summary { return summary{Value: v, Q1: v * 0.99, Q3: v * 1.01, N: 5} }
	noisy := func(v float64) summary { return summary{Value: v, Q1: v * 0.9, Q3: v * 1.1, N: 5} }
	for _, c := range []struct {
		d                  metricDef
		a, b               summary
		sameCode, sameSeed bool
		want               string
	}{
		{rate, steady(100), steady(85), false, false, "REGRESSED"},
		{rate, steady(100), steady(95), false, false, "unchanged"},
		{rate, steady(100), steady(120), false, false, "improved"},
		{rate, noisy(100), steady(95), false, false, "unresolved"},
		{virt, steady(24), steady(24), true, true, "identical"},
		{virt, steady(24), steady(24.0001), true, true, "DIFFERS"},
		// Another commit, the same seed: the model's numbers are held to 1 %.
		{virt, steady(24), steady(24.1), false, true, "unchanged"},
		{virt, steady(24), steady(25), false, true, "REGRESSED"},
		// Another seed: only the metric's own cross-seed bound applies.
		{virt, steady(24), steady(25), false, false, "unchanged"},
		{virt, steady(24), steady(27), false, false, "REGRESSED"},
		{count, steady(7), steady(8), false, true, "-"},
		{count, steady(7), steady(8), true, true, "DIFFERS"},
	} {
		if got := judge(c.d, c.a, c.b, c.sameCode, c.sameSeed); !strings.HasPrefix(got, c.want) {
			t.Errorf("%s %v -> %v (same code %v, same seed %v): %q, want %s",
				c.d.name, c.a.Value, c.b.Value, c.sameCode, c.sameSeed, got, c.want)
		}
	}
}

// TestCompareSuites covers what -compare refuses or fails apart from the
// per-metric verdicts: suites that measured different things, and failed ops.
func TestCompareSuites(t *testing.T) {
	suite := func(seconds float64, failed int64) *suiteResult {
		wr := workloadResult{Name: "kv-chain", Metrics: map[string]summary{},
			Runs: []*runResult{{Attempted: 1000, Failed: failed}}}
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				wr.Metrics[d.name] = summary{Value: 10, Q1: 10, Q3: 10, N: suiteReps, Unit: d.unit, Exact: d.exact}
			}
		}
		return &suiteResult{Env: environment{Commit: "c0ffee", Seed: 1, Repetitions: suiteReps, Seconds: seconds},
			Workloads: []workloadResult{wr}}
	}
	if err := compareSuites(suite(10, 0), suite(10, 0), true); err != nil {
		t.Errorf("equal suites: %v", err)
	}
	if err := compareSuites(suite(10, 0), suite(5, 0), true); err == nil {
		t.Error("suites of 10 s and 5 s runs were compared")
	}
	if err := compareSuites(suite(10, 0), suite(10, 1), true); err == nil {
		t.Error("a suite with a failed op passed")
	}
}
