package experiments

import (
	"fmt"
	"strings"

	"hyperloop/internal/metrics"
	"hyperloop/internal/protocol"
	"hyperloop/internal/sim"
	"hyperloop/internal/topo"
)

// The claim scenarios. Each states one falsifiable claim the paper or this
// reproduction makes about fault handling or durability, runs a
// deterministic simulated scenario that could refute it, and records named
// checks beside its tables: an experiment regenerates a number, a scenario
// defends a sentence. A scenario is an ordinary registry entry — its
// deployments are trials on the arena, its counters the run's StatSink —
// whose Report carries a Claim and renders as a FINDINGS.md artifact.

// Check is one falsifiable assertion a scenario made against its claim,
// with the observation that decided it.
type Check struct {
	Name     string
	Pass     bool
	Observed string
}

// check records one assertion and its observation.
func (r *Report) check(name string, pass bool, format string, a ...any) {
	r.Checks = append(r.Checks, Check{Name: name, Pass: pass, Observed: fmt.Sprintf(format, a...)})
}

// Passed reports whether every check held; a report without checks (every
// paper experiment) passes.
func (r *Report) Passed() bool {
	for _, c := range r.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

// findings renders a scenario's run as a deterministic markdown artifact:
// same (seed, scale) → byte-identical output. It never includes wall-clock
// values, so CI can diff a regenerated artifact against the committed one.
func (r *Report) findings() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Hypothesis: %s\n\n", r.ID)
	fmt.Fprintf(&b, "**Claim.** %s\n\n", r.Claim)
	passed := 0
	for _, c := range r.Checks {
		if c.Pass {
			passed++
		}
	}
	verdict := "VALIDATED"
	if passed != len(r.Checks) {
		verdict = "REFUTED"
	}
	fmt.Fprintf(&b, "**Verdict: %s** — %d/%d checks passed.\n\n", verdict, passed, len(r.Checks))
	b.WriteString("## Checks\n\n| check | result | observed |\n|---|---|---|\n")
	for _, c := range r.Checks {
		res := "pass"
		if !c.Pass {
			res = "**FAIL**"
		}
		fmt.Fprintf(&b, "| %s | %s | %s |\n", c.Name, res, c.Observed)
	}
	if len(r.Tables) > 0 {
		b.WriteString("\n## Data\n")
		for _, t := range r.Tables {
			b.WriteString("\n```\n")
			b.WriteString(t.String())
			b.WriteString("```\n")
		}
	}
	if len(r.Notes) > 0 {
		b.WriteString("\n## Notes\n\n")
		for _, n := range r.Notes {
			fmt.Fprintf(&b, "- %s\n", n)
		}
	}
	b.WriteString("\n## Deterministic counters\n\n| counter | value |\n|---|---|\n")
	c := r.counters
	fmt.Fprintf(&b, "| sim_events | %d |\n", c.SimEvents)
	fmt.Fprintf(&b, "| cqes | %d |\n", c.CQEs)
	fmt.Fprintf(&b, "| messages | %d |\n", c.Messages)
	fmt.Fprintf(&b, "| wire_bytes | %d |\n", c.WireBytes)
	fmt.Fprintf(&b, "| drops | %d |\n", c.Drops)
	fmt.Fprintf(&b, "| dups | %d |\n", c.Dups)
	return b.String()
}

// deploy builds a scenario deployment through the trial's arena: spec's
// rack and the named protocol over all of its servers. Zero fields take the
// scenarios' defaults: 3 servers of 8 cores, a 256 KB mirror.
func deploy(ar *trialArena, spec topo.Spec, proto string, p protocol.Params) (*cluster, error) {
	if spec.Servers == 0 {
		spec.Servers = 3
	}
	if spec.Cores == 0 {
		spec.Cores = 8
	}
	if p.MirrorSize == 0 {
		p.MirrorSize = 256 << 10
	}
	spec.Alloc = ar
	return newCluster(spec, protocol.Named(proto), p)
}

// driver names the one driver fiber a scenario runs on its deployment.
const driver = "hypothesis-driver"

// fd formats a virtual duration for tables and observations.
func fd(d sim.Duration) string { return metrics.FormatDuration(d) }

// ft formats a virtual instant as an offset from t=0.
func ft(t sim.Time) string { return fd(t.Sub(sim.Time(0))) }
