// Command hyperloop-bench regenerates the paper's tables and figures and
// runs the claim scenarios that defend its fault and durability statements.
//
// Usage:
//
//	hyperloop-bench -list
//	hyperloop-bench -exp fig8a
//	hyperloop-bench -exp all -scale full -seed 7
//	hyperloop-bench -exp all -procs 8 -json BENCH_baseline.json -findings hypotheses
//
// A refuted claim (any failed check) exits 1 after every section is
// printed and the -json and -findings output is written, so CI sees the
// full evidence, not just the first failure.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"hyperloop/internal/experiments"
	"hyperloop/internal/report"
)

// errRefuted distinguishes a refuted claim (evidence written, exit 1) from
// infrastructure failures.
var errRefuted = errors.New("claim refuted")

// runAll is the run loop; tests swap it to force a refuted claim.
var runAll = experiments.RunAll

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hyperloop-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("hyperloop-bench", flag.ContinueOnError)
	var (
		exp      = fs.String("exp", "all", "experiment or scenario id (see -list) or 'all'")
		seed     = fs.Uint64("seed", 1, "simulation seed (equal seeds reproduce runs exactly)")
		scale    = fs.String("scale", "quick", "run size: quick | full (paper-grade sample counts)")
		list     = fs.Bool("list", false, "list experiments and scenarios and exit")
		procs    = fs.Int("procs", 0, "concurrent trials across all experiments (0 = GOMAXPROCS); results are identical at any setting")
		jsonP    = fs.String("json", "", "write machine-readable counters to this file ('-' = stdout)")
		findings = fs.String("findings", "", "write each scenario's FINDINGS.md under <dir>/<id>/")
		prof     = fs.String("cpuprofile", "", "write a pprof CPU profile of the experiment runs to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (flags must precede it; experiments are chosen with -exp)", fs.Arg(0))
	}
	if *list {
		for _, id := range experiments.Order() {
			fmt.Printf("  %-20s %s\n", id, experiments.Describe(id))
		}
		return nil
	}
	var sc experiments.Scale
	switch *scale {
	case "quick":
		sc = experiments.Quick
	case "full":
		sc = experiments.Full
	default:
		return fmt.Errorf("unknown scale %q (quick|full)", *scale)
	}
	if *procs < 0 {
		return fmt.Errorf("-procs must be >= 0, got %d", *procs)
	}
	prev := experiments.SetParallelism(*procs)
	defer experiments.SetParallelism(prev)

	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.Order()
	}
	if *prof != "" {
		pf, err := os.Create(*prof)
		if err != nil {
			return err
		}
		defer pf.Close()
		if err := pprof.StartCPUProfile(pf); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	results, err := runAll(ids, *seed, sc)
	if err != nil {
		return err
	}
	bench := report.BenchReport{Seed: *seed, Scale: *scale, Procs: experiments.Parallelism()}
	refuted := 0
	for _, r := range results {
		s := r.Stats
		text := r.Report.String()
		bench.Experiments = append(bench.Experiments, report.ExpStats{
			ID:        r.ID,
			Report:    text,
			SimEvents: s.SimEvents,
			CQEs:      s.CQEs,
			Messages:  s.Messages,
			WireBytes: s.WireBytes,
		})
		fmt.Println(text)
		fmt.Printf("(%s regenerated in %v wall time)\n\n", r.ID, r.Wall.Round(time.Millisecond))
		if !r.Report.Passed() {
			refuted++
		}
		if *findings != "" && r.Report.Claim != "" {
			dir := filepath.Join(*findings, r.ID)
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join(dir, "FINDINGS.md"), []byte(text), 0o644); err != nil {
				return err
			}
		}
	}

	if *jsonP != "" {
		if err := bench.Write(*jsonP); err != nil {
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
