// Package report is the -json schema hyperloop-bench writes and benchdiff
// and the baseline-staleness tests decode strictly.
package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// ExpStats is one experiment's (or claim scenario's) entry, filled from the
// run's own StatSink — counters its trials attributed locally, so they read
// the same whether experiments ran serially or overlapped.
//
// Every field is deterministic: the report text and the counters are
// byte-identical for a given (seed, scale) at any -procs setting, so a
// regenerated baseline differs from the committed one only where behaviour
// changed. The CI regression gate (cmd/benchdiff) diffs them exactly.
// Host-clock figures (wall time) are not recorded; host-clock evidence is
// `bash bench/run.sh`.
type ExpStats struct {
	ID     string `json:"id"`
	Report string `json:"report"`

	SimEvents int64 `json:"sim_events"`
	CQEs      int64 `json:"cqes"`
	Messages  int64 `json:"messages"`
	WireBytes int64 `json:"wire_bytes"`
}

// BenchReport is the -json output: enough to compare behaviour across
// commits.
type BenchReport struct {
	Seed        uint64     `json:"seed"`
	Scale       string     `json:"scale"`
	Procs       int        `json:"procs"`
	Experiments []ExpStats `json:"experiments"`
}

// Load reads a report, rejecting fields the schema does not have — a file
// written by an older or newer schema is stale, not silently trimmed.
func Load(path string) (*BenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var r BenchReport
	if err := dec.Decode(&r); err != nil {
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
