// Command hyperloop-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	hyperloop-bench -list
//	hyperloop-bench -exp fig8a
//	hyperloop-bench -exp all -scale full -seed 7
//	hyperloop-bench -exp all -procs 8 -json BENCH_baseline.json
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"hyperloop/internal/experiments"
	"hyperloop/internal/report"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hyperloop-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("hyperloop-bench", flag.ContinueOnError)
	var (
		exp   = fs.String("exp", "all", "experiment id (see -list) or 'all'")
		seed  = fs.Uint64("seed", 1, "simulation seed (equal seeds reproduce runs exactly)")
		scale = fs.String("scale", "quick", "run size: quick | full (paper-grade sample counts)")
		list  = fs.Bool("list", false, "list experiments and exit")
		procs = fs.Int("procs", 0, "concurrent trials across all experiments (0 = GOMAXPROCS); results are identical at any setting")
		jsonP = fs.String("json", "", "write machine-readable perf stats to this file ('-' = stdout)")
		prof  = fs.String("cpuprofile", "", "write a pprof CPU profile of the experiment runs to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (flags must precede it; experiments are chosen with -exp)", fs.Arg(0))
	}
	if *list {
		for _, id := range experiments.PaperOrder() {
			fmt.Printf("  %-10s %s\n", id, experiments.Describe(id))
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
		ids = experiments.PaperOrder()
	}
	bench := report.BenchReport{
		Seed: *seed, Scale: *scale,
		Procs: experiments.Parallelism(), GoMaxProcs: runtime.GOMAXPROCS(0),
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
	total := time.Now()
	results, err := experiments.RunAll(ids, *seed, sc)
	if err != nil {
		return err
	}
	bench.TotalWallMS = float64(time.Since(total).Microseconds()) / 1000
	for _, r := range results {
		s := r.Stats
		bench.Experiments = append(bench.Experiments, report.ExpStats{
			ID:           r.ID,
			Report:       r.Report.String(),
			WallMS:       float64(r.Wall.Microseconds()) / 1000,
			SimEvents:    s.SimEvents,
			CQEs:         s.CQEs,
			Messages:     s.Messages,
			WireBytes:    s.WireBytes,
			EventsPerSec: float64(s.SimEvents) / r.Wall.Seconds(),

			DeviceGets:        s.DeviceGets,
			DevicePuts:        s.DevicePuts,
			DeviceFresh:       s.DeviceFresh,
			DeviceReused:      s.DeviceReused,
			DeviceBytesZeroed: s.DeviceBytesZeroed,
			DeviceBytesDemand: s.DeviceBytesDemand,
			KernelGets:        s.KernelGets,
			KernelFresh:       s.KernelFresh,
			KernelReused:      s.KernelReused,
			FabricBuilds:      s.FabricBuilds,
			FabricReused:      s.FabricReused,
		})
		fmt.Println(r.Report)
		fmt.Printf("(%s regenerated in %v wall time)\n\n", r.ID, r.Wall.Round(time.Millisecond))
	}

	if *jsonP != "" {
		if err := bench.Write(*jsonP); err != nil {
			return err
		}
		if *jsonP != "-" {
			fmt.Printf("(perf stats written to %s)\n", *jsonP)
		}
	}
	return nil
}
