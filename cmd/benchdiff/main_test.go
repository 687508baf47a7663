package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

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

func sample() report.BenchReport {
	return report.BenchReport{
		Seed: 1, Scale: "quick", Procs: 1,
		Experiments: []report.ExpStats{{
			ID: "fig8a", Report: "== fig8a ==\np50 1.2us\n",
			SimEvents: 1000, CQEs: 50, Messages: 60, WireBytes: 4096,
		}},
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

func TestReportTextMismatchFails(t *testing.T) {
	dir := t.TempDir()
	a := writeReport(t, dir, "a.json", sample())
	cur := sample()
	cur.Experiments[0].Report = "== fig8a ==\np50 1.3us\n"
	b := writeReport(t, dir, "b.json", cur)
	if err := run([]string{a, b}); err == nil {
		t.Fatal("changed report text accepted")
	}
}

func TestStrictCounterMismatchFails(t *testing.T) {
	dir := t.TempDir()
	a := writeReport(t, dir, "a.json", sample())
	cur := sample()
	cur.Experiments[0].SimEvents++
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
	second := r.Experiments[0]
	second.ID = "shards"
	second.Report = "== shards ==\np99 9.9us\n"
	second.SimEvents = 2000
	r.Experiments = append(r.Experiments, second)
	return r
}

func TestOnlyFilterComparesSingleExperiment(t *testing.T) {
	dir := t.TempDir()
	a := writeReport(t, dir, "a.json", multiSample())
	// Current run regenerated just the shards experiment: the other
	// experiment's counters diverge wildly but must be ignored.
	cur := multiSample()
	cur.Experiments[0].SimEvents = 1
	cur.Experiments[0].Report = "garbage"
	cur.Experiments = cur.Experiments[:2]
	b := writeReport(t, dir, "b.json", cur)
	if err := run([]string{"-only", "shards", a, b}); err != nil {
		t.Fatalf("-only shards compared unrelated experiments: %v", err)
	}
	// The filtered experiment itself still gates strictly.
	cur.Experiments[1].SimEvents++
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
