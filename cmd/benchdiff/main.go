// Command benchdiff compares two hyperloop-bench -json reports and
// enforces the CI regression gate.
//
// Usage:
//
//	benchdiff [-only exp] BENCH_baseline.json current.json
//
// Every field the report carries is the simulation's virtual-time
// behaviour (the schema is stated in internal/report), and all of it but
// procs must match exactly:
//   - seed and scale;
//   - the experiment id sequence;
//   - per experiment: title, claim, each check (name, pass, observed),
//     notes, the counters sim_events, cqes, messages, wire_bytes, drops
//     and dups, and each table's title, columns and every raw cell value.
//
// Cells are compared as values, not as rendered text, so a change below
// display precision (12 301 ns → 12 302 ns, both "12.3µs") is a mismatch.
// Any mismatch is a behaviour change: benchdiff names the experiment and
// the first divergent field — for a cell its table, row and column — and
// the first line where the two rendered reports differ, then exits 1. If
// the change is intentional, regenerate the baseline (see ci.sh
// -update-baseline). Procs is not compared: the committed baseline is a
// serial run, CI's is overlapped, and both must read the same. Host-clock
// evidence comes from `bash bench/run.sh` medians (BENCHMARK.json).
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
	"reflect"
	"strings"

	"hyperloop/internal/report"
)

// firstLineDiff locates the first differing line of two texts; line 0
// means the texts are equal.
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
			out.Experiments = []*report.Report{e}
			return &out, nil
		}
	}
	return nil, fmt.Errorf("%s: no experiment %q in report", path, id)
}

// field is one named value of the baseline and the current report.
type field struct {
	name   string
	vb, vc any
}

// firstField names the first of fields whose values differ, or returns "".
func firstField(fields ...field) string {
	for _, f := range fields {
		if !reflect.DeepEqual(f.vb, f.vc) {
			return fmt.Sprintf("%s: baseline %+v, current %+v", f.name, f.vb, f.vc)
		}
	}
	return ""
}

// firstDiff names the first field in which two entries of one experiment
// differ — a cell by its table, row and column — or returns "".
func firstDiff(b, c *report.Report) string {
	for i, tb := range b.Tables {
		if i >= len(c.Tables) || len(tb.Rows) != len(c.Tables[i].Rows) || !reflect.DeepEqual(tb.Columns, c.Tables[i].Columns) {
			break // a change of shape: the text diff locates it
		}
		for r, row := range tb.Rows {
			for j, col := range tb.Columns {
				if vc := c.Tables[i].Rows[r][j]; row[j] != vc {
					return fmt.Sprintf("table %d %q, row %d (%v), column %q: baseline %v, current %v",
						i+1, tb.Title, r+1, row[0], col.Name, row[j], vc)
				}
			}
		}
	}
	if !reflect.DeepEqual(b.Tables, c.Tables) {
		return "tables: their number, titles, columns or row counts differ"
	}
	return firstField(field{"title", b.Title, c.Title}, field{"claim", b.Claim, c.Claim},
		field{"checks", b.Checks, c.Checks}, field{"notes", b.Notes, c.Notes}, field{"counters", b.Counters, c.Counters})
}

// compare returns every strict mismatch between a baseline and a current
// report: the run's identity, else at most one per experiment.
func compare(base, cur *report.BenchReport) []string {
	ids := func(r *report.BenchReport) (ids []string) {
		for _, e := range r.Experiments {
			ids = append(ids, e.ID)
		}
		return ids
	}
	if d := firstField(field{"seed", base.Seed, cur.Seed}, field{"scale", base.Scale, cur.Scale},
		field{"experiment set", ids(base), ids(cur)}); d != "" {
		return []string{d}
	}
	var bad []string
	for i, b := range base.Experiments {
		c := cur.Experiments[i]
		d := firstDiff(b, c)
		if d == "" {
			continue
		}
		text := "the rendered reports are identical: the change is below display precision or in a field the text omits"
		if line, lb, lc := firstLineDiff(b.String(), c.String()); line > 0 {
			text = fmt.Sprintf("the rendered reports diverge at line %d:\n    baseline: %s\n    current:  %s", line, lb, lc)
		}
		bad = append(bad, fmt.Sprintf("%s: %s\n  %s", b.ID, d, text))
	}
	return bad
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
	if bad := compare(base, cur); len(bad) > 0 {
		fmt.Printf("benchdiff: %d strict mismatch(es) between %s and %s:\n", len(bad), fs.Arg(0), fs.Arg(1))
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
