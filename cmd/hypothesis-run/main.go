// Command hypothesis-run executes the claim-validating scenario catalog
// (internal/hypotheses) and renders each scenario's FINDINGS.md evidence.
//
// Usage:
//
//	hypothesis-run -list
//	hypothesis-run -run partition-failover
//	hypothesis-run -run all -seed 42 -scale quick
//	hypothesis-run -run all -findings hypotheses -json HYPO_baseline.json
//
// A refuted claim (any failed check) exits 1 after rendering every
// requested scenario, so CI sees the full evidence, not just the first
// failure. The -json report is the hyperloop-bench schema
// (internal/report) — strict virtual-time counters per scenario — so
// cmd/benchdiff gates the catalog against the committed HYPO_baseline.json
// exactly like the bench gate.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hyperloop/internal/hypotheses"
	"hyperloop/internal/report"
)

// errRefuted distinguishes a refuted claim (evidence rendered, exit 1)
// from infrastructure failures.
var errRefuted = fmt.Errorf("hypothesis refuted")

func run(args []string) error {
	fs := flag.NewFlagSet("hypothesis-run", flag.ContinueOnError)
	var (
		id       = fs.String("run", "all", "scenario id (see -list) or 'all'")
		seed     = fs.Uint64("seed", 1, "simulation seed (equal seeds reproduce runs exactly)")
		scale    = fs.String("scale", "quick", "run size: quick | full")
		list     = fs.Bool("list", false, "list scenarios and exit")
		jsonP    = fs.String("json", "", "write machine-readable counters to this file ('-' = stdout)")
		findings = fs.String("findings", "", "write each scenario's FINDINGS.md under <dir>/<id>/")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (flags must precede it; scenarios are chosen with -run)", fs.Arg(0))
	}
	if *list {
		for _, sid := range hypotheses.CatalogOrder() {
			fmt.Printf("  %-20s %s\n", sid, hypotheses.Describe(sid))
		}
		return nil
	}
	sc, err := hypotheses.ParseScale(*scale)
	if err != nil {
		return err
	}
	ids := []string{*id}
	if *id == "all" {
		ids = hypotheses.CatalogOrder()
	}

	rep := report.BenchReport{
		Seed: *seed, Scale: sc.String(),
		Procs: 1, GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	refuted := 0
	total := time.Now()
	for _, sid := range ids {
		start := time.Now()
		r, err := hypotheses.Run(sid, *seed, sc)
		if err != nil {
			return err
		}
		wall := time.Since(start)
		text := r.Findings()
		fmt.Println(text)
		if !r.Passed() {
			refuted++
		}
		if *findings != "" {
			dir := filepath.Join(*findings, sid)
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join(dir, "FINDINGS.md"), []byte(text), 0o644); err != nil {
				return err
			}
		}
		c := r.Counters
		rep.Experiments = append(rep.Experiments, report.ExpStats{
			ID:           sid,
			Report:       text,
			WallMS:       float64(wall.Microseconds()) / 1000,
			SimEvents:    c.SimEvents,
			CQEs:         c.CQEs,
			Messages:     c.Messages,
			WireBytes:    c.WireBytes,
			EventsPerSec: float64(c.SimEvents) / wall.Seconds(),
		})
	}
	rep.TotalWallMS = float64(time.Since(total).Microseconds()) / 1000

	if *jsonP != "" {
		if err := rep.Write(*jsonP); err != nil {
			return err
		}
		if *jsonP != "-" {
			fmt.Printf("(counters written to %s)\n", *jsonP)
		}
	}
	if refuted > 0 {
		return fmt.Errorf("%w: %d of %d scenario(s) failed checks", errRefuted, refuted, len(ids))
	}
	return nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hypothesis-run:", err)
		os.Exit(1)
	}
}
