// Command benchdiff compares two hyperloop-bench -json reports and
// enforces the CI regression gate.
//
// Usage:
//
//	benchdiff [-only exp] BENCH_baseline.json current.json
//
// Every field the report carries is the simulation's virtual-time
// behaviour, and all of it but procs must match exactly: seed, scale, the
// experiment id sequence, each experiment's rendered report text (every
// latency and throughput number is virtual time, so the text is
// deterministic), and the counters sim_events, cqes, messages and
// wire_bytes. Any mismatch is a behaviour change: benchdiff prints the
// first divergence per experiment and exits 1. If the change is
// intentional, regenerate the baseline (see ci.sh -update-baseline).
// Procs is not compared: the committed baseline is a serial run, CI's is
// overlapped, and both must read the same. Host-clock evidence comes from
// `bash bench/run.sh` medians (BENCHMARK.json).
//
// -only <experiment> restricts the comparison to one experiment id — for
// iterating on a single experiment locally without re-running the full
// sweep (`hyperloop-bench -exp <id> -json ...` against the committed
// baseline).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"hyperloop/internal/report"
)

// firstLineDiff locates the first differing line of two texts.
func firstLineDiff(a, b string) (int, string, string) {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) || i < len(bl); i++ {
		var la, lb string
		if i < len(al) {
			la = al[i]
		}
		if i < len(bl) {
			lb = bl[i]
		}
		if la != lb {
			return i + 1, la, lb
		}
	}
	return 0, "", ""
}

// filterOnly narrows a report to the named experiment id.
func filterOnly(r *report.BenchReport, id, path string) (*report.BenchReport, error) {
	for _, e := range r.Experiments {
		if e.ID == id {
			out := *r
			out.Experiments = []report.ExpStats{e}
			return &out, nil
		}
	}
	return nil, fmt.Errorf("%s: no experiment %q in report", path, id)
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	only := fs.String("only", "", "compare just this experiment id")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: benchdiff [-only exp] <baseline.json> <current.json>")
	}
	base, err := report.Load(fs.Arg(0))
	if err != nil {
		return err
	}
	cur, err := report.Load(fs.Arg(1))
	if err != nil {
		return err
	}
	if *only != "" {
		if base, err = filterOnly(base, *only, fs.Arg(0)); err != nil {
			return err
		}
		if cur, err = filterOnly(cur, *only, fs.Arg(1)); err != nil {
			return err
		}
	}
	args = []string{fs.Arg(0), fs.Arg(1)}

	var bad []string
	strict := func(ok bool, format string, a ...any) {
		if !ok {
			bad = append(bad, fmt.Sprintf(format, a...))
		}
	}
	strict(base.Seed == cur.Seed, "seed: baseline %d, current %d", base.Seed, cur.Seed)
	strict(base.Scale == cur.Scale, "scale: baseline %q, current %q", base.Scale, cur.Scale)

	var baseIDs, curIDs []string
	for _, e := range base.Experiments {
		baseIDs = append(baseIDs, e.ID)
	}
	for _, e := range cur.Experiments {
		curIDs = append(curIDs, e.ID)
	}
	if strings.Join(baseIDs, " ") != strings.Join(curIDs, " ") {
		strict(false, "experiment set: baseline [%s], current [%s]",
			strings.Join(baseIDs, " "), strings.Join(curIDs, " "))
	} else {
		for i := range base.Experiments {
			b, c := base.Experiments[i], cur.Experiments[i]
			if b.Report != c.Report {
				line, lb, lc := firstLineDiff(b.Report, c.Report)
				strict(false, "%s: report diverges at line %d:\n  baseline: %s\n  current:  %s",
					b.ID, line, lb, lc)
			}
			cmp := func(name string, vb, vc int64) {
				strict(vb == vc, "%s: %s: baseline %d, current %d", b.ID, name, vb, vc)
			}
			cmp("sim_events", b.SimEvents, c.SimEvents)
			cmp("cqes", b.CQEs, c.CQEs)
			cmp("messages", b.Messages, c.Messages)
			cmp("wire_bytes", b.WireBytes, c.WireBytes)
		}
	}

	if len(bad) > 0 {
		fmt.Printf("benchdiff: %d strict mismatch(es) between %s and %s:\n", len(bad), args[0], args[1])
		for _, m := range bad {
			fmt.Println("  " + m)
		}
		return fmt.Errorf("virtual-time behaviour changed; if intentional, run ./ci.sh -update-baseline and commit the new BENCH_baseline.json")
	}
	fmt.Println("benchdiff: strict fields identical")
	return nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}
