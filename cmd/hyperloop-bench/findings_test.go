package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hyperloop/internal/experiments"
	"hyperloop/internal/report"
)

// TestListIncludesScenarios: -list names every registry id, the claim
// scenarios included, each with its description.
func TestListIncludesScenarios(t *testing.T) {
	out, err := os.CreateTemp(t.TempDir(), "list")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	err = run([]string{"-list"})
	os.Stdout = stdout
	if err != nil {
		t.Fatalf("-list: %v", err)
	}
	listed, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range experiments.Order() {
		if !strings.Contains(string(listed), id+" ") || !strings.Contains(string(listed), experiments.Describe(id)) {
			t.Errorf("-list output misses %s:\n%s", id, listed)
		}
	}
}

// TestUnknownScenario: an unknown id fails before anything runs, so no
// findings directory is left behind.
func TestUnknownScenario(t *testing.T) {
	fdir := filepath.Join(t.TempDir(), "findings")
	if err := run([]string{"-exp", "no-such-claim", "-findings", fdir}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if _, err := os.Stat(fdir); !os.IsNotExist(err) {
		t.Fatalf("findings directory written for an unknown scenario: %v", err)
	}
}

// TestScaleFlag: both scales round-trip into the report, and an unknown
// one is rejected before a scenario runs or writes findings.
func TestScaleFlag(t *testing.T) {
	dir := t.TempDir()
	for _, sc := range []string{"quick", "full"} {
		path := filepath.Join(dir, sc+".json")
		if err := run([]string{"-exp", "table3", "-scale", sc, "-json", path}); err != nil {
			t.Fatalf("-scale %s: %v", sc, err)
		}
		rep, err := report.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Scale != sc {
			t.Fatalf("-scale %s: report scale %q", sc, rep.Scale)
		}
	}
	fdir := filepath.Join(dir, "findings")
	if err := run([]string{"-exp", "multi-failure", "-scale", "huge", "-findings", fdir}); err == nil {
		t.Fatal("unknown scale accepted")
	}
	if _, err := os.Stat(fdir); !os.IsNotExist(err) {
		t.Fatalf("findings directory written under an unknown scale: %v", err)
	}
}

// TestScenarioStrayArguments: a scenario id given positionally, or with
// the retired hypothesis-run's -run flag, fails loudly instead of running
// the default set.
func TestScenarioStrayArguments(t *testing.T) {
	for _, args := range [][]string{
		{"multi-failure", "-seed", "2"},
		{"-exp", "multi-failure", "full"},
	} {
		if err := run(args); err == nil || !strings.Contains(err.Error(), "unexpected argument") {
			t.Errorf("run(%q) = %v, want an unexpected-argument error", args, err)
		}
	}
	if err := run([]string{"-run", "multi-failure"}); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
		t.Errorf("run(-run multi-failure) = %v, want \"flag provided but not defined\"", err)
	}
}

// TestCountersDeterministic reruns one scenario through the CLI and
// demands identical JSON reports — every field is deterministic.
func TestCountersDeterministic(t *testing.T) {
	dir := t.TempDir()
	var reps [2]*report.BenchReport
	for i := range reps {
		path := filepath.Join(dir, fmt.Sprintf("%d.json", i))
		if err := run([]string{"-exp", "flush-storm", "-seed", "42", "-json", path}); err != nil {
			t.Fatal(err)
		}
		rep, err := report.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = rep
	}
	if !reflect.DeepEqual(reps[0], reps[1]) {
		t.Fatal("reports differ across identical CLI runs")
	}
}

// TestBaselineScenariosMatchFindings: the scenario entries of the committed
// BENCH_baseline.json render exactly the committed
// hypotheses/<id>/FINDINGS.md text, so the two artifacts cannot drift apart.
func TestBaselineScenariosMatchFindings(t *testing.T) {
	rep, err := report.Load(filepath.Join("..", "..", "BENCH_baseline.json"))
	if err != nil {
		t.Fatalf("committed baseline does not decode — regenerate it: %v", err)
	}
	var ids []string
	for _, e := range rep.Experiments {
		if e.Claim == "" {
			continue
		}
		ids = append(ids, e.ID)
		md, err := os.ReadFile(filepath.Join("..", "..", "hypotheses", e.ID, "FINDINGS.md"))
		if err != nil || string(md) != e.String() {
			t.Errorf("%s: baseline report differs from the committed FINDINGS.md (%v) — regenerate with ./ci.sh -update-baseline", e.ID, err)
		}
	}
	order := experiments.Order()
	if want := order[len(order)-len(ids):]; len(ids) == 0 || !reflect.DeepEqual(ids, want) {
		t.Fatalf("baseline scenarios %v, want the registry's tail %v", ids, want)
	}
}

func TestRunSingleScenarioJSONAndFindings(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "hypo.json")
	fdir := filepath.Join(dir, "findings")
	if err := run([]string{"-exp", "multi-failure", "-seed", "7", "-json", path, "-findings", fdir}); err != nil {
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
	if c := e.Counters; c.SimEvents <= 0 || c.CQEs <= 0 || c.Messages <= 0 || c.WireBytes <= 0 {
		t.Fatalf("counters not populated: %+v", c)
	}
	if e.Claim == "" || len(e.Checks) == 0 || !e.Passed() {
		t.Fatalf("claim and checks not in the -json entry: %+v", e)
	}
	md, err := os.ReadFile(filepath.Join(fdir, "multi-failure", "FINDINGS.md"))
	if err != nil {
		t.Fatalf("findings artifact: %v", err)
	}
	if string(md) != e.String() {
		t.Fatal("FINDINGS.md differs from the rendered -json entry")
	}
}

// TestRefutedClaimFailsRun forces one check of a real scenario run to fail
// and shows the run still prints every section, writes the JSON and the
// findings, and only then reports the refutation.
func TestRefutedClaimFailsRun(t *testing.T) {
	prev := runAll
	defer func() { runAll = prev }()
	runAll = func(ids []string, seed uint64, sc experiments.Scale) ([]experiments.Result, error) {
		res, err := prev(ids, seed, sc)
		for _, r := range res {
			if r.Report.Claim != "" {
				r.Report.Checks[0].Pass = false
			}
		}
		return res, err
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	fdir := filepath.Join(dir, "findings")
	err := run([]string{"-exp", "multi-failure", "-json", path, "-findings", fdir})
	if !errors.Is(err, errRefuted) {
		t.Fatalf("run = %v, want %v", err, errRefuted)
	}
	rep, lerr := report.Load(path)
	if lerr != nil || len(rep.Experiments) != 1 || rep.Experiments[0].Passed() {
		t.Fatalf("JSON not written with the refuted report: %v %+v", lerr, rep)
	}
	md, ferr := os.ReadFile(filepath.Join(fdir, "multi-failure", "FINDINGS.md"))
	if ferr != nil || !strings.Contains(string(md), "**FAIL**") {
		t.Fatalf("findings not written with the failed check: %v", ferr)
	}
}

// TestCommittedFindingsMatch regenerates everything through the CLI at
// the baseline seed and demands the findings tree it writes equal the
// committed hypotheses/ tree — the same directories, each FINDINGS.md byte
// for byte (ci.sh's bench gate diffs the same two trees).
func TestCommittedFindingsMatch(t *testing.T) {
	fdir := t.TempDir()
	if err := run([]string{"-exp", "all", "-seed", "1", "-findings", fdir}); err != nil {
		t.Fatal(err)
	}
	committed := filepath.Join("..", "..", "hypotheses")
	dirs := func(root string) []string {
		ents, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		return names
	}
	got, want := dirs(fdir), dirs(committed)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("run wrote findings for %v, committed tree has %v — regenerate with ./ci.sh -update-baseline", got, want)
	}
	for _, id := range want {
		a, errA := os.ReadFile(filepath.Join(committed, id, "FINDINGS.md"))
		b, errB := os.ReadFile(filepath.Join(fdir, id, "FINDINGS.md"))
		if errA != nil || errB != nil || string(a) != string(b) {
			t.Errorf("%s: committed FINDINGS.md is stale (%v, %v) — regenerate with ./ci.sh -update-baseline", id, errA, errB)
		}
	}
}
