package main

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hyperloop/internal/experiments"
	"hyperloop/internal/report"
)

func TestListFlag(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatalf("-list: %v", err)
	}
}

func TestUnknownScale(t *testing.T) {
	if err := run([]string{"-scale", "huge"}); err == nil {
		t.Fatal("unknown scale accepted")
	}
}

func TestUnknownExperiment(t *testing.T) {
	if err := run([]string{"-exp", "fig99"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunSingleExperiment(t *testing.T) {
	if err := run([]string{"-exp", "table3", "-scale", "quick"}); err != nil {
		t.Fatalf("table3: %v", err)
	}
}

func TestNegativeProcs(t *testing.T) {
	if err := run([]string{"-exp", "table3", "-procs", "-1"}); err == nil {
		t.Fatal("negative -procs accepted")
	}
}

// TestStrayArguments: Go's flag package stops at the first non-flag, so
// anything after it — including flags — would be silently ignored. A flag
// the binary does not (or no longer does) define must likewise fail loudly.
func TestStrayArguments(t *testing.T) {
	for _, args := range [][]string{
		{"fig8a", "-seed", "2"},
		{"-exp", "table3", "full"},
	} {
		if err := run(args); err == nil || !strings.Contains(err.Error(), "unexpected argument") {
			t.Errorf("run(%q) = %v, want an unexpected-argument error", args, err)
		}
	}
	for _, args := range [][]string{
		{"-exp", "table3", "-no-such-flag", "off"},
		{"-exp", "table3", "-costs", "x"}, // removed with the cost-hint scheduler
	} {
		if err := run(args); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("run(%q) = %v, want \"flag provided but not defined\"", args, err)
		}
	}
}

func TestJSONOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := run([]string{"-exp", "abl-flush", "-procs", "2", "-json", path}); err != nil {
		t.Fatalf("run: %v", err)
	}
	rep, err := report.Load(path)
	if err != nil {
		t.Fatalf("load json: %v", err)
	}
	if rep.Procs != 2 {
		t.Fatalf("procs = %d, want 2", rep.Procs)
	}
	if len(rep.Experiments) != 1 || rep.Experiments[0].ID != "abl-flush" {
		t.Fatalf("experiments = %+v, want one abl-flush entry", rep.Experiments)
	}
	e := rep.Experiments[0]
	if e.Counters.SimEvents <= 0 {
		t.Fatalf("stats not populated: %+v", e.Counters)
	}
	if e.Counters.CQEs <= 0 || e.Counters.Messages <= 0 || e.Counters.WireBytes <= 0 {
		t.Fatalf("fabric counters not attributed: %+v", e.Counters)
	}
	if len(e.Tables) == 0 || len(e.Tables[0].Rows) == 0 {
		t.Fatal("tables missing from -json entry")
	}
}

// TestBaselineMatchesSchema fails when the committed BENCH_baseline.json has
// gone stale: it no longer decodes strictly against internal/report, or its
// id list no longer matches the registry's order. Refresh with:
//
//	go run ./cmd/hyperloop-bench -exp all -scale quick -seed 1 -procs 1 -json BENCH_baseline.json
func TestBaselineMatchesSchema(t *testing.T) {
	rep, err := report.Load(filepath.Join("..", "..", "BENCH_baseline.json"))
	if err != nil {
		t.Fatalf("committed baseline does not decode — regenerate it: %v", err)
	}
	// The id list must match the registry's order exactly.
	var ids []string
	for _, e := range rep.Experiments {
		ids = append(ids, e.ID)
	}
	if want := experiments.Order(); !reflect.DeepEqual(ids, want) {
		t.Fatalf("baseline covers %v\nregistry has  %v — regenerate it", ids, want)
	}
	// Deterministic sanity on values so an interrupted or refuted
	// regeneration can't be committed.
	if rep.Scale != "quick" || rep.Seed != 1 || rep.Procs != 1 {
		t.Fatalf("baseline must be -scale quick -seed 1 -procs 1, got scale=%q seed=%d procs=%d", rep.Scale, rep.Seed, rep.Procs)
	}
	validated := 0
	for _, e := range rep.Experiments {
		// table3 renders a static workload table; it schedules no trials.
		if len(e.Tables) == 0 || (e.Counters.SimEvents == 0 && e.ID != "table3") {
			t.Fatalf("experiment %s has empty stats: %+v", e.ID, e.Counters)
		}
		if e.Claim != "" {
			if !e.Passed() {
				t.Fatalf("scenario %s is not validated in the baseline:\n%s", e.ID, e)
			}
			validated++
		}
	}
	if validated != 6 {
		t.Fatalf("baseline has %d validated scenarios, want 6", validated)
	}
}
