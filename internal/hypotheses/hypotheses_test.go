package hypotheses

import (
	"strings"
	"testing"

	"hyperloop/internal/metrics"
	"hyperloop/internal/protocol"
	"hyperloop/internal/topo"
)

func TestCatalog(t *testing.T) {
	names := Names()
	order := CatalogOrder()
	if len(names) != len(order) {
		t.Fatalf("Names() has %d ids, CatalogOrder() %d", len(names), len(order))
	}
	inOrder := map[string]bool{}
	for _, id := range order {
		inOrder[id] = true
	}
	for i, id := range names {
		if i > 0 && names[i-1] >= id {
			t.Fatalf("Names() not sorted: %v", names)
		}
		if !inOrder[id] {
			t.Fatalf("registered id %q missing from CatalogOrder()", id)
		}
		if Describe(id) == "" {
			t.Errorf("%s: empty description", id)
		}
		if Claim(id) == "" {
			t.Errorf("%s: empty claim", id)
		}
	}
	if _, err := Run("no-such-scenario", 1, Quick); err == nil {
		t.Fatal("Run accepted an unknown id")
	}
}

func TestScaleParse(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Scale
	}{{"quick", Quick}, {"full", Full}} {
		got, err := ParseScale(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseScale(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Fatalf("Scale(%v).String() = %q, want %q", got, got.String(), tc.in)
		}
	}
	if _, err := ParseScale("medium"); err == nil {
		t.Fatal("ParseScale accepted an unknown scale")
	}
	if Quick.pick(3, 7) != 3 || Full.pick(3, 7) != 7 {
		t.Fatal("Scale.pick broken")
	}
}

func TestFindingsRendering(t *testing.T) {
	r := &Result{
		ID:    "demo",
		Claim: "the sky is blue",
		Notes: []string{"observed at noon"},
		Counters: Counters{
			SimEvents: 10, CQEs: 2, Messages: 3, WireBytes: 4, Drops: 5, Dups: 6,
		},
	}
	r.Tables = append(r.Tables, metrics.NewTable("colors", "what", "color"))
	r.Tables[0].AddRow("sky", "blue")
	r.check("spectrometer agrees", true, "peak at 470nm")
	if !r.Passed() {
		t.Fatal("all-pass result not Passed")
	}
	out := r.Findings()
	for _, want := range []string{
		"# Hypothesis: demo", "the sky is blue", "Verdict: VALIDATED", "1/1 checks",
		"spectrometer agrees", "peak at 470nm", "colors", "observed at noon",
		"| sim_events | 10 |", "| drops | 5 |",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("findings missing %q:\n%s", want, out)
		}
	}
	r.check("barometer disagrees", false, "sky reads green")
	if r.Passed() {
		t.Fatal("failed check left result Passed")
	}
	out = r.Findings()
	if !strings.Contains(out, "Verdict: REFUTED") || !strings.Contains(out, "1/2 checks") {
		t.Errorf("refuted findings wrong verdict:\n%s", out)
	}
	if !strings.Contains(out, "**FAIL**") {
		t.Errorf("failed check not marked:\n%s", out)
	}
}

func TestDeploymentErrors(t *testing.T) {
	if _, err := deploy(topo.Spec{Seed: 1}, "no-such-protocol", protocol.Params{}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

// TestScenariosPassQuick runs the whole catalog at quick scale and demands
// every claim hold — the same bar ci.sh holds the committed artifacts to.
func TestScenariosPassQuick(t *testing.T) {
	for _, id := range CatalogOrder() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			r, err := Run(id, 1, Quick)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if r.ID != id || r.Claim == "" {
				t.Fatalf("result not stamped: id=%q claim=%q", r.ID, r.Claim)
			}
			for _, c := range r.Checks {
				if !c.Pass {
					t.Errorf("check failed: %s — %s", c.Name, c.Observed)
				}
			}
			if len(r.Checks) == 0 {
				t.Fatal("scenario made no checks")
			}
			if r.Counters.SimEvents == 0 || r.Counters.Messages == 0 {
				t.Fatalf("counters not collected: %+v", r.Counters)
			}
			if t.Failed() {
				t.Logf("findings:\n%s", r.Findings())
			}
		})
	}
}

// TestScenarioDeterminism re-runs one scenario and demands byte-identical
// findings — the property the CI baseline and artifact diffs depend on.
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
	if a.Findings() != b.Findings() {
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
