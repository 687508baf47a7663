package experiments

import (
	"strings"
	"testing"

	"hyperloop/internal/protocol"
	"hyperloop/internal/report"
	"hyperloop/internal/topo"
)

// scenarios are the registry's claim scenarios, in presentation order.
var scenarios = []string{
	"retry-vs-loss", "multi-failure", "partition-failover",
	"flush-storm", "2pc-recovery", "tenant-interference",
}

// TestCatalog: Names() is sorted, and exactly the claim scenarios carry a
// "claim: " description.
func TestCatalog(t *testing.T) {
	names := Names()
	isScenario := map[string]bool{}
	for _, id := range scenarios {
		isScenario[id] = true
	}
	for i, id := range names {
		if i > 0 && names[i-1] >= id {
			t.Fatalf("Names() not sorted: %v", names)
		}
		if got := strings.HasPrefix(Describe(id), "claim: "); got != isScenario[id] {
			t.Errorf("%s: description %q, want a claim prefix only on scenarios", id, Describe(id))
		}
	}
	if _, err := Run("no-such-scenario", 1, Quick); err == nil {
		t.Fatal("Run accepted an unknown id")
	}
}

func TestScalePick(t *testing.T) {
	if Quick.pick(3, 7) != 3 || Full.pick(3, 7) != 7 {
		t.Fatal("Scale.pick broken")
	}
}

func TestFindingsRendering(t *testing.T) {
	r := &report.Report{
		ID:       "demo",
		Claim:    "the sky is blue",
		Notes:    []string{"observed at noon"},
		Counters: report.Counters{SimEvents: 10, CQEs: 2, Messages: 3, WireBytes: 4, Drops: 5, Dups: 6},
	}
	r.Tables = append(r.Tables, report.NewTable("colors", report.Text("what"), report.Text("color")))
	r.Tables[0].AddRow("sky", "blue")
	r.Check("spectrometer agrees", true, "peak at 470nm")
	if !r.Passed() {
		t.Fatal("all-pass result not Passed")
	}
	out := r.String()
	for _, want := range []string{
		"# Hypothesis: demo", "the sky is blue", "Verdict: VALIDATED", "1/1 checks",
		"spectrometer agrees", "peak at 470nm", "colors", "observed at noon",
		"| sim_events | 10 |", "| drops | 5 |", "| dups | 6 |",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("findings missing %q:\n%s", want, out)
		}
	}
	r.Check("barometer disagrees", false, "sky reads green")
	if r.Passed() {
		t.Fatal("failed check left result Passed")
	}
	out = r.String()
	if !strings.Contains(out, "Verdict: REFUTED") || !strings.Contains(out, "1/2 checks") {
		t.Errorf("refuted findings wrong verdict:\n%s", out)
	}
	if !strings.Contains(out, "**FAIL**") {
		t.Errorf("failed check not marked:\n%s", out)
	}
}

func TestDeploymentErrors(t *testing.T) {
	if _, err := deploy(nil, topo.Spec{Seed: 1}, "no-such-protocol", protocol.Params{}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

// TestScenariosPassQuick runs every claim scenario at quick scale and
// demands every claim hold — the same bar ci.sh holds the committed
// artifacts to.
func TestScenariosPassQuick(t *testing.T) {
	for _, id := range scenarios {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			r, s, err := RunStats(id, 1, Quick)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if r.ID != id || r.Claim == "" || Describe(id) == "" {
				t.Fatalf("result not stamped: id=%q claim=%q desc=%q", r.ID, r.Claim, Describe(id))
			}
			for _, c := range r.Checks {
				if !c.Pass {
					t.Errorf("check failed: %s — %s", c.Name, c.Observed)
				}
			}
			if len(r.Checks) == 0 {
				t.Fatal("scenario made no checks")
			}
			if s.SimEvents == 0 || s.Messages == 0 || r.Counters != s.Counters {
				t.Fatalf("counters not collected: report %+v, run %+v", r.Counters, s)
			}
			if t.Failed() {
				t.Logf("findings:\n%s", r)
			}
		})
	}
}

// TestScenarioDeterminism re-runs one scenario and demands byte-identical
// findings — the property the committed artifacts depend on — and a
// different seed must move them.
func TestScenarioDeterminism(t *testing.T) {
	a, err := Run("multi-failure", 42, Quick)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("multi-failure", 42, Quick)
	if err != nil {
		t.Fatal(err)
	}
	if a.Counters != b.Counters {
		t.Fatalf("counters differ across identical runs:\n%+v\n%+v", a.Counters, b.Counters)
	}
	if a.String() != b.String() {
		t.Fatal("findings differ across identical runs")
	}
	c, err := Run("multi-failure", 43, Quick)
	if err != nil {
		t.Fatal(err)
	}
	if c.Counters == a.Counters {
		t.Fatal("different seeds produced identical counters — seed not wired through")
	}
}
