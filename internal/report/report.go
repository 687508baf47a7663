// Package report is the one statement of a report's format: the Report an
// experiment or claim scenario returns, its typed tables, its text and
// FINDINGS.md rendering, and the -json file hyperloop-bench writes and
// benchdiff and the baseline-staleness tests Load strictly.
//
// The -json schema is the BenchReport below, field for field:
//
//	seed, scale, procs         the run's flags
//	experiments[]              one Report per id, in run order:
//	  id, title, claim         claim is set on a claim scenario only
//	  checks[]                 a scenario's {name, pass, observed}
//	  tables[]                 {title, columns[], rows[][]}
//	    columns[]              {name, unit, digits, missing}
//	    rows[][]               one raw value per column, typed by its unit
//	  notes[]
//	  counters                 sim_events, cqes, messages, wire_bytes,
//	                           drops, dups
//
// A column's unit is one of "ns" (a duration in nanoseconds), "B" (a byte
// count), "count", "ratio" ({num, den}, rendered "N.Nx" or "inf"), "%" (a
// percentage), "float" (rendered to digits decimals) and "text"; a
// missing cell is null and renders as the column's missing text, "-" by
// default. The file carries no rendered text: a report's text is a pure
// function of these fields (Report.String), so storing it too would be a
// second schema.
//
// Every field is deterministic: for a given (seed, scale) it is identical
// at any -procs setting, so a regenerated baseline differs from the
// committed one only where behaviour changed, and benchdiff compares all
// of it but procs exactly. Host-clock figures (wall time) are not
// recorded; host-clock evidence is `bash bench/run.sh`.
package report

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// Report is one experiment's regenerated output. A claim scenario's report
// also carries the claim it defends and the checks that decide it.
type Report struct {
	ID       string   `json:"id"`
	Title    string   `json:"title"`
	Claim    string   `json:"claim,omitempty"`
	Checks   []Check  `json:"checks,omitempty"`
	Tables   []*Table `json:"tables"`
	Notes    []string `json:"notes,omitempty"`
	Counters Counters `json:"counters"`
}

// Check is one falsifiable assertion a scenario made against its claim,
// with the observation that decided it.
type Check struct {
	Name     string `json:"name"`
	Pass     bool   `json:"pass"`
	Observed string `json:"observed"`
}

// Counters are the simulation counters attributed to exactly one run:
// events its trial kernels executed, its trial fabrics' CQEs, messages and
// wire bytes, and their injected faults' drops and duplicates.
type Counters struct {
	SimEvents int64 `json:"sim_events"`
	CQEs      int64 `json:"cqes"`
	Messages  int64 `json:"messages"`
	WireBytes int64 `json:"wire_bytes"`
	Drops     int64 `json:"drops"`
	Dups      int64 `json:"dups"`
}

// Check records one assertion and its observation.
func (r *Report) Check(name string, pass bool, format string, a ...any) {
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

// String renders the report; a scenario's is its FINDINGS.md text.
func (r *Report) String() string {
	if r.Claim != "" {
		return r.findings()
	}
	out := fmt.Sprintf("== %s: %s ==\n", r.ID, r.Title)
	for _, t := range r.Tables {
		out += "\n" + t.String()
	}
	for _, n := range r.Notes {
		out += "\nNote: " + n + "\n"
	}
	return out
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
	c := r.Counters
	fmt.Fprintf(&b, "\n## Deterministic counters\n\n| counter | value |\n|---|---|\n"+
		"| sim_events | %d |\n| cqes | %d |\n| messages | %d |\n| wire_bytes | %d |\n| drops | %d |\n| dups | %d |\n",
		c.SimEvents, c.CQEs, c.Messages, c.WireBytes, c.Drops, c.Dups)
	return b.String()
}

// BenchReport is the -json output: every report of one run, enough to
// compare behaviour across commits.
type BenchReport struct {
	Seed        uint64    `json:"seed"`
	Scale       string    `json:"scale"`
	Procs       int       `json:"procs"`
	Experiments []*Report `json:"experiments"`
}

// Load reads a report, rejecting fields the schema does not have — a file
// written by an older or newer schema is stale, not silently trimmed.
func Load(path string) (*BenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r BenchReport
	if err := strictDecode(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// Write renders the report as indented JSON to path; "-" means stdout.
func (r *BenchReport) Write(path string) error {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(out)
		return err
	}
	return os.WriteFile(path, out, 0o644)
}
