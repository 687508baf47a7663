// Package report is the -json schema shared by hyperloop-bench,
// hypothesis-run and benchdiff: the two writers emit it, benchdiff and the
// baseline-staleness tests decode it strictly.
package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// ExpStats is one experiment's (or hypothesis scenario's) entry, filled
// from the run's own StatSink — counters its trials attributed locally, so
// they read the same whether experiments ran serially or overlapped.
//
// Report and the deterministic counters (sim_events, cqes, messages,
// wire_bytes, device_gets/puts, device_bytes_demand, kernel_gets,
// fabric_builds) are byte-identical at any -procs setting; the CI
// regression gate (cmd/benchdiff) diffs them exactly. Wall-clock rates and
// the pools' fresh/reused splits depend on host scheduling and are
// advisory. The hypothesis catalog does not track the pool fields; they
// stay zero on both sides of a diff.
type ExpStats struct {
	ID     string `json:"id"`
	Report string `json:"report"`

	WallMS       float64 `json:"wall_ms"`
	SimEvents    int64   `json:"sim_events"`
	CQEs         int64   `json:"cqes"`
	Messages     int64   `json:"messages"`
	WireBytes    int64   `json:"wire_bytes"`
	EventsPerSec float64 `json:"events_per_sec"`

	DeviceGets        int64 `json:"device_gets"`
	DevicePuts        int64 `json:"device_puts"`
	DeviceFresh       int64 `json:"device_fresh"`
	DeviceReused      int64 `json:"device_reused"`
	DeviceBytesZeroed int64 `json:"device_bytes_zeroed"`
	DeviceBytesDemand int64 `json:"device_bytes_demand"`
	KernelGets        int64 `json:"kernel_gets"`
	KernelFresh       int64 `json:"kernel_fresh"`
	KernelReused      int64 `json:"kernel_reused"`
	FabricBuilds      int64 `json:"fabric_builds"`
	FabricReused      int64 `json:"fabric_reused"`
}

// BenchReport is the -json output: enough to compare perf across commits.
type BenchReport struct {
	Seed        uint64     `json:"seed"`
	Scale       string     `json:"scale"`
	Procs       int        `json:"procs"`
	GoMaxProcs  int        `json:"gomaxprocs"`
	Experiments []ExpStats `json:"experiments"`
	TotalWallMS float64    `json:"total_wall_ms"`
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
