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
		Seed: 1, Scale: "quick", Procs: 1, GoMaxProcs: 1, TotalWallMS: 100,
		Experiments: []report.ExpStats{{
			ID: "fig8a", Report: "== fig8a ==\np50 1.2us\n",
			WallMS: 40, SimEvents: 1000, CQEs: 50, Messages: 60, WireBytes: 4096,
			EventsPerSec: 25000, DeviceGets: 4, DevicePuts: 4, DeviceReused: 2,
			DeviceBytesDemand: 1 << 20, KernelGets: 4, KernelReused: 3,
			FabricBuilds: 4, FabricReused: 3,
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

func TestAdvisoryOnlyChangesPass(t *testing.T) {
	dir := t.TempDir()
	a := writeReport(t, dir, "a.json", sample())
	// Everything host-dependent moves, to a faster host and to one ten
	// times slower; virtual time does not. Wall clock gates nothing.
	for _, speed := range []float64{5, 0.1} {
		cur := sample()
		cur.Procs, cur.GoMaxProcs = 8, 8
		cur.TotalWallMS /= speed
		cur.Experiments[0].WallMS /= speed
		cur.Experiments[0].EventsPerSec *= speed
		cur.Experiments[0].DeviceReused = 0
		cur.Experiments[0].KernelReused = 0
		cur.Experiments[0].FabricReused = 0
		b := writeReport(t, dir, "b.json", cur)
		if err := run([]string{a, b}); err != nil {
			t.Fatalf("advisory-only drift (host ×%v) rejected: %v", speed, err)
		}
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
	cur.TotalWallMS = 7 // a single-experiment run's wall time
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
	if err := os.WriteFile(path, []byte(`{"seed":1,"allocs":5}`), 0o644); err != nil {
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
	if err := run([]string{"-eps-tolerance", "0", "a.json", "b.json"}); err == nil || !strings.Contains(err.Error(), "not defined") {
		t.Fatalf("retired -eps-tolerance flag: err = %v, want an unknown-flag error", err)
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
