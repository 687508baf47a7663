package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hyperloop/internal/hypotheses"
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

func TestUnknownScenario(t *testing.T) {
	if err := run([]string{"-run", "no-such-claim"}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

// TestStrayArguments: Go's flag package stops at the first non-flag, so
// anything after it — including flags — would be silently ignored.
func TestStrayArguments(t *testing.T) {
	for _, args := range [][]string{
		{"multi-failure", "-seed", "2"},
		{"-run", "multi-failure", "full"},
	} {
		if err := run(args); err == nil || !strings.Contains(err.Error(), "unexpected argument") {
			t.Errorf("run(%q) = %v, want an unexpected-argument error", args, err)
		}
	}
}

func TestRunSingleScenarioJSONAndFindings(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "hypo.json")
	fdir := filepath.Join(dir, "findings")
	if err := run([]string{"-run", "multi-failure", "-seed", "7", "-json", path, "-findings", fdir}); err != nil {
		t.Fatalf("run: %v", err)
	}
	rep, err := report.Load(path)
	if err != nil {
		t.Fatalf("load json: %v", err)
	}
	if rep.Seed != 7 || len(rep.Experiments) != 1 || rep.Experiments[0].ID != "multi-failure" {
		t.Fatalf("report = %+v, want one multi-failure entry at seed 7", rep)
	}
	e := rep.Experiments[0]
	if e.SimEvents <= 0 || e.CQEs <= 0 || e.Messages <= 0 || e.WireBytes <= 0 {
		t.Fatalf("counters not populated: %+v", e)
	}
	if !strings.Contains(e.Report, "Verdict: VALIDATED") {
		t.Fatalf("findings not embedded in -json entry:\n%s", e.Report)
	}
	md, err := os.ReadFile(filepath.Join(fdir, "multi-failure", "FINDINGS.md"))
	if err != nil {
		t.Fatalf("findings artifact: %v", err)
	}
	if string(md) != e.Report {
		t.Fatal("FINDINGS.md differs from the -json report text")
	}
}

// TestCountersDeterministic reruns one scenario via the CLI and demands
// byte-identical strict fields — the property the HYPO baseline gate pins.
func TestCountersDeterministic(t *testing.T) {
	dir := t.TempDir()
	strip := func(path string) *report.BenchReport {
		r, err := report.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := range r.Experiments {
			r.Experiments[i].WallMS = 0
			r.Experiments[i].EventsPerSec = 0
		}
		r.TotalWallMS = 0
		return r
	}
	a := filepath.Join(dir, "a.json")
	b := filepath.Join(dir, "b.json")
	if err := run([]string{"-run", "flush-storm", "-seed", "42", "-json", a}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-run", "flush-storm", "-seed", "42", "-json", b}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(strip(a), strip(b)) {
		t.Fatal("strict fields differ across identical CLI runs")
	}
}

// TestBaselineMatchesSchema fails when the committed HYPO_baseline.json has
// gone stale: it no longer decodes strictly against internal/report, or its
// scenario set no longer matches the catalog. Refresh with:
//
//	go run ./cmd/hypothesis-run -run all -scale quick -seed 1 -json HYPO_baseline.json
func TestBaselineMatchesSchema(t *testing.T) {
	rep, err := report.Load(filepath.Join("..", "..", "HYPO_baseline.json"))
	if err != nil {
		t.Fatalf("committed baseline does not decode — regenerate it: %v", err)
	}
	// The scenario list must match the catalog order exactly.
	var ids []string
	for _, e := range rep.Experiments {
		ids = append(ids, e.ID)
	}
	if want := hypotheses.CatalogOrder(); !reflect.DeepEqual(ids, want) {
		t.Fatalf("baseline covers %v\ncatalog has  %v — regenerate it", ids, want)
	}
	if rep.Scale != "quick" || rep.Seed != 1 {
		t.Fatalf("baseline must be -scale quick -seed 1, got scale=%q seed=%d", rep.Scale, rep.Seed)
	}
	for _, e := range rep.Experiments {
		if e.WallMS <= 0 || e.SimEvents <= 0 || !strings.Contains(e.Report, "Verdict: VALIDATED") {
			t.Fatalf("scenario %s has empty or refuted stats: %+v", e.ID, e)
		}
	}
}

// TestCommittedFindingsMatch regenerates every scenario at the baseline
// seed and demands the committed hypotheses/<id>/FINDINGS.md artifacts
// match byte for byte — the same staleness bar the baseline JSON gets.
func TestCommittedFindingsMatch(t *testing.T) {
	for _, id := range hypotheses.CatalogOrder() {
		r, err := hypotheses.Run(id, 1, hypotheses.Quick)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		path := filepath.Join("..", "..", "hypotheses", id, "FINDINGS.md")
		committed, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: committed findings missing — regenerate with "+
				"`go run ./cmd/hypothesis-run -run all -findings hypotheses`: %v", id, err)
		}
		if string(committed) != r.Findings() {
			t.Errorf("%s: committed FINDINGS.md is stale — regenerate with "+
				"`go run ./cmd/hypothesis-run -run all -findings hypotheses`", id)
		}
	}
}
