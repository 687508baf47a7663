// Command bench is the repository's benchmark: four application-level
// workloads driven through the public facade and the store packages,
// measured on the host clock and the virtual clock, with a traced pass
// that attributes cost to the layers beneath the stores. See README.md.
//
//	bash bench/run.sh --workload kv-chain --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh                      # the suite: every workload, repeated
//	bash bench/run.sh -selfcheck           # two suites, compared
//	bash bench/run.sh -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	// One P, whatever nproc is. The simulator runs one goroutine at a time
	// but hands control between fiber goroutines constantly; with a second
	// P those hand-offs wake and park OS threads, and the same binary then
	// measures anywhere between 0.6x and 1x of its one-P throughput from
	// run to run (README.md, "Run-to-run spread"). The collector shares
	// the P, so its cost shows in host_ops_per_s.
	runtime.GOMAXPROCS(1)
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "", "run this one workload once and print one JSON result line (empty: run the suite)")
		seed         = fs.Uint64("seed", 1, "seed of the op stream and of the simulation")
		seconds      = fs.Float64("seconds", 10, "host seconds the timed phase measures")
		trace        = fs.Int("trace", 0, "1: traced run — per-layer metrics, spans written to bench/out/trace-<workload>.json")
		out          = fs.String("out", "", "with -workload: also write the run's full record to this file (how the suite reads its children)")
		label        = fs.String("label", "suite", "suite: result file is bench/out/result-<label>.json")
		compare      = fs.Bool("compare", false, "compare two result files given as arguments")
		selfcheck    = fs.Bool("selfcheck", false, "run the suite twice and compare the two")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	err := func() error {
		switch {
		case *compare:
			if fs.NArg() != 2 {
				return fmt.Errorf("-compare takes two result files")
			}
			return compareFiles(fs.Arg(0), fs.Arg(1))
		case *selfcheck:
			return selfCheck(suiteConfig{seed: *seed, seconds: *seconds})
		case *workloadName == "":
			_, err := runSuite(suiteConfig{seed: *seed, seconds: *seconds, label: *label})
			return err
		default:
			return runOne(*workloadName, *seed, *seconds, *trace != 0, *out)
		}
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// runOne is the mode the benchmark driver uses: one workload, once. The
// last line of standard output is the result object; the exit code is 0
// only if every op succeeded and every key read back correctly.
func runOne(name string, seed uint64, seconds float64, trace bool, out string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	res, err := run(runConfig{workload: w, seed: seed, seconds: seconds, trace: trace,
		setupReps: 11, probeScale: 1, outDir: outDir})
	if err != nil {
		return err
	}
	if out != "" {
		data, err := json.MarshalIndent(res, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, data, 0o644); err != nil {
			return err
		}
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for _, d := range defs {
		v := res.Metrics[d.name]
		fmt.Printf("%s %s %v %s\n", name, d.name, v.Value, v.Unit)
		line.Metrics[d.name] = v
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d ops failed: %v", name, res.Failed, res.Attempted, res.FirstErrors)
	}
	return nil
}
