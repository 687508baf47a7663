package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hyperloop/internal/report"
)

func writeReport(t *testing.T, dir, name string, r report.BenchReport) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := r.Write(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// entry is one experiment's report with a one-row latency table.
func entry(id string, p50 time.Duration, simEvents int64) *report.Report {
	tbl := report.NewTable("gWRITE latency", report.Bytes("size"), report.Dur("p50"))
	tbl.AddRow(1024, p50)
	return &report.Report{
		ID: id, Title: "gWRITE latency vs message size",
		Tables:   []*report.Table{tbl},
		Counters: report.Counters{SimEvents: simEvents, CQEs: 50, Messages: 60, WireBytes: 4096},
	}
}

func sample() report.BenchReport {
	return report.BenchReport{
		Seed: 1, Scale: "quick", Procs: 1,
		Experiments: []*report.Report{entry("fig8a", 12301*time.Nanosecond, 1000)},
	}
}

func TestIdenticalReportsPass(t *testing.T) {
	dir := t.TempDir()
	a := writeReport(t, dir, "a.json", sample())
	b := writeReport(t, dir, "b.json", sample())
	if err := run([]string{a, b}); err != nil {
		t.Fatalf("identical reports rejected: %v", err)
	}
}

// TestAdvisoryOnlyChangesPass: procs is the one field outside the gate —
// the committed baseline is a serial run and CI's is overlapped, and the
// two must pass against each other. The report carries nothing else that
// may differ.
func TestAdvisoryOnlyChangesPass(t *testing.T) {
	dir := t.TempDir()
	a := writeReport(t, dir, "a.json", sample())
	cur := sample()
	cur.Procs = 4
	b := writeReport(t, dir, "b.json", cur)
	if err := run([]string{a, b}); err != nil {
		t.Fatalf("serial baseline vs overlapped run rejected: %v", err)
	}
}

// TestBelowPrecisionChangeFails: cells are compared as values, so 12 301 ns
// → 12 302 ns fails the gate though both render "12.3µs".
func TestBelowPrecisionChangeFails(t *testing.T) {
	base, cur := sample(), sample()
	cur.Experiments[0] = entry("fig8a", 12302*time.Nanosecond, 1000)
	if base.Experiments[0].String() != cur.Experiments[0].String() {
		t.Fatal("the two p50s render differently; the test needs a change below display precision")
	}
	dir := t.TempDir()
	if err := run([]string{writeReport(t, dir, "a.json", base), writeReport(t, dir, "b.json", cur)}); err == nil {
		t.Fatal("a cell change below display precision accepted")
	}
}

// TestMismatchNamesCell: a changed cell is reported by experiment, table,
// row and column, with the first line where the rendered reports differ.
func TestMismatchNamesCell(t *testing.T) {
	base, cur := sample(), sample()
	cur.Experiments[0] = entry("fig8a", 13500*time.Nanosecond, 1000)
	bad := compare(&base, &cur)
	for _, want := range []string{`fig8a: table 1 "gWRITE latency", row 1 (1024), column "p50": ` +
		"baseline 12.301µs, current 13.5µs", "diverge at line 7:\n    baseline: 1K    12.3µs\n    current:  1K    13.5µs",
	} {
		if len(bad) != 1 || !strings.Contains(bad[0], want) {
			t.Errorf("mismatches %q, want one that names %q", bad, want)
		}
	}
}

func TestStrictCounterMismatchFails(t *testing.T) {
	dir := t.TempDir()
	a := writeReport(t, dir, "a.json", sample())
	cur := sample()
	cur.Experiments[0].Counters.SimEvents++
	b := writeReport(t, dir, "b.json", cur)
	if err := run([]string{a, b}); err == nil {
		t.Fatal("changed sim_events accepted")
	}
}

func TestExperimentSetMismatchFails(t *testing.T) {
	dir := t.TempDir()
	a := writeReport(t, dir, "a.json", sample())
	cur := sample()
	cur.Experiments[0].ID = "fig8b"
	b := writeReport(t, dir, "b.json", cur)
	if err := run([]string{a, b}); err == nil {
		t.Fatal("changed experiment set accepted")
	}
}

func TestSeedMismatchFails(t *testing.T) {
	dir := t.TempDir()
	a := writeReport(t, dir, "a.json", sample())
	cur := sample()
	cur.Seed = 2
	b := writeReport(t, dir, "b.json", cur)
	if err := run([]string{a, b}); err == nil {
		t.Fatal("changed seed accepted")
	}
}

// multiSample is a two-experiment baseline for the -only filter tests.
func multiSample() report.BenchReport {
	r := sample()
	r.Experiments = append(r.Experiments, entry("shards", 9900*time.Nanosecond, 2000))
	return r
}

func TestOnlyFilterComparesSingleExperiment(t *testing.T) {
	dir := t.TempDir()
	a := writeReport(t, dir, "a.json", multiSample())
	// Current run regenerated just the shards experiment: the other
	// experiment's counters diverge wildly but must be ignored.
	cur := multiSample()
	cur.Experiments[0] = entry("fig8a", time.Second, 1)
	b := writeReport(t, dir, "b.json", cur)
	if err := run([]string{"-only", "shards", a, b}); err != nil {
		t.Fatalf("-only shards compared unrelated experiments: %v", err)
	}
	// The filtered experiment itself still gates strictly.
	cur.Experiments[1].Counters.SimEvents++
	b = writeReport(t, dir, "b.json", cur)
	if err := run([]string{"-only", "shards", a, b}); err == nil {
		t.Fatal("-only missed a strict mismatch in the selected experiment")
	}
}

func TestOnlyFilterUnknownExperiment(t *testing.T) {
	dir := t.TempDir()
	a := writeReport(t, dir, "a.json", multiSample())
	b := writeReport(t, dir, "b.json", multiSample())
	if err := run([]string{"-only", "nope", a, b}); err == nil {
		t.Fatal("unknown -only id accepted")
	}
}

func TestUnknownFieldRejected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "stale.json")
	if err := os.WriteFile(path, []byte(`{"seed":1,"total_wall_ms":5}`), 0o644); err != nil {
		t.Fatal(err)
	}
	good := writeReport(t, dir, "good.json", sample())
	if err := run([]string{path, good}); err == nil {
		t.Fatal("stale schema accepted")
	}
}

func TestUsage(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("missing args accepted")
	}
	for _, flag := range []string{"-eps-tolerance", "-csv"} {
		if err := run([]string{flag, "x", "a.json", "b.json"}); err == nil || !strings.Contains(err.Error(), "not defined") {
			t.Fatalf("retired %s flag: err = %v, want an unknown-flag error", flag, err)
		}
	}
}

// TestCommittedBaselineAgainstItself runs the real gate input through the
// tool: the committed baseline must diff cleanly against itself.
func TestCommittedBaselineAgainstItself(t *testing.T) {
	base := filepath.Join("..", "..", "BENCH_baseline.json")
	if _, err := os.Stat(base); err != nil {
		t.Fatalf("committed baseline missing: %v", err)
	}
	if err := run([]string{base, base}); err != nil {
		t.Fatalf("baseline does not diff cleanly against itself: %v", err)
	}
}
