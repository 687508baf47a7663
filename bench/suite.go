package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// A suite is every workload, suiteReps untraced runs and one traced run
// each, one child process per run so peak RSS and heap state belong to
// that run alone. Result and trace files go to outDir. Both are constants:
// a result file made with other values could not be compared with the rest.
const (
	suiteReps = 5
	outDir    = "bench/out"
)

type suiteConfig struct {
	seed    uint64
	seconds float64
	label   string
}

// environment is recorded in every result file.
type environment struct {
	Commit      string  `json:"commit"`
	Seed        uint64  `json:"seed"`
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	FlushPolicy string  `json:"flush_policy"`
	Repetitions int     `json:"repetitions"`
	Seconds     float64 `json:"seconds"`
}

// summary is one metric of one workload over the suite's repetitions.
type summary struct {
	Value float64 `json:"value"` // median over the N runs
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
	Unit  string  `json:"unit"`
	Exact bool    `json:"exact"`
}

type workloadResult struct {
	Name      string             `json:"name"`
	Records   int                `json:"records"`
	WindowOps int                `json:"window_ops"`
	BatchOps  int                `json:"batch_ops"`
	Runs      []*runResult       `json:"runs"`
	Metrics   map[string]summary `json:"metrics"`
}

type suiteResult struct {
	Env       environment      `json:"env"`
	Workloads []workloadResult `json:"workloads"`
}

// commitID names the code a result file was made from: HEAD, with -dirty
// appended when the work tree differs from it, or "unknown" outside git.
func commitID() string {
	head, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	id := strings.TrimSpace(string(head))
	if status, err := exec.Command("git", "status", "--porcelain").Output(); err != nil || len(status) > 0 {
		id += "-dirty"
	}
	return id
}

// child runs one workload once in a fresh process and returns its record.
func child(cfg suiteConfig, w workload, trace bool, file string) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatUint(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", traceArg, "-out", file)
	cmd.Stderr = os.Stderr
	if _, err := cmd.Output(); err != nil {
		return nil, fmt.Errorf("%s child: %w", w.name, err)
	}
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	res := &runResult{}
	if err := json.Unmarshal(data, res); err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	return res, os.Remove(file)
}

// runSuite runs every workload, prints one line per metric, and writes
// bench/out/result-<label>.json.
func runSuite(cfg suiteConfig) (*suiteResult, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	suite := &suiteResult{Env: environment{
		Commit: commitID(), Seed: cfg.seed, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), FlushPolicy: "every replicated write durable",
		Repetitions: suiteReps, Seconds: cfg.seconds,
	}}
	for _, w := range workloads {
		wr := workloadResult{Name: w.name, Records: w.records, WindowOps: w.windowOps,
			BatchOps: w.batchOps, Metrics: map[string]summary{}}
		for rep := 0; rep <= suiteReps; rep++ {
			trace := rep == suiteReps // the traced run goes last
			file := filepath.Join(outDir, fmt.Sprintf("run-%s-%s-%d.json", cfg.label, w.name, rep))
			res, err := child(cfg, w, trace, file)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(os.Stderr, "%s rep %d trace=%v: %d ops in %.1fs\n", w.name, rep, trace, res.TimedOps, res.RunSeconds)
			wr.Runs = append(wr.Runs, res)
		}
		if err := summarize(&wr); err != nil {
			return nil, err
		}
		suite.Workloads = append(suite.Workloads, wr)
	}
	printSuite(suite)
	data, err := json.MarshalIndent(suite, "", " ")
	if err != nil {
		return nil, err
	}
	file := filepath.Join(outDir, "result-"+cfg.label+".json")
	fmt.Fprintln(os.Stderr, "wrote", file)
	return suite, os.WriteFile(file, data, 0o644)
}

// summarize fills wr.Metrics: end-to-end metrics from the untraced runs
// (median and quartiles), per-layer metrics from the traced one. It also
// enforces what must hold within one suite: exact metrics agree across
// every run, traced or not.
func summarize(wr *workloadResult) error {
	plain, traced := wr.Runs[:suiteReps], wr.Runs[suiteReps]
	for _, d := range endToEnd {
		var xs []float64
		for _, r := range plain {
			xs = append(xs, r.Metrics[d.name].Value)
		}
		if d.exact {
			for _, r := range wr.Runs {
				if got := r.Metrics[d.name].Value; got != xs[0] {
					return fmt.Errorf("%s %s: %v and %v from one seed (trace=%v) — the simulation is not deterministic",
						wr.Name, d.name, xs[0], got, r.Trace)
				}
			}
		}
		q1, q2, q3 := quartiles(xs)
		wr.Metrics[d.name] = summary{q2, q1, q3, len(xs), d.unit, d.exact}
	}
	for _, d := range perLayer {
		v, ok := traced.Metrics[d.name]
		if !ok {
			return fmt.Errorf("%s: traced run did not report %s", wr.Name, d.name)
		}
		// Counter deltas are taken in untraced runs too; they must match.
		if want, both := plain[0].Metrics[d.name]; both && d.exact && want.Value != v.Value {
			return fmt.Errorf("%s %s: %v untraced, %v traced — tracing changed the simulation",
				wr.Name, d.name, want.Value, v.Value)
		}
		wr.Metrics[d.name] = summary{v.Value, v.Value, v.Value, 1, d.unit, d.exact}
	}
	return nil
}

func printSuite(s *suiteResult) {
	e := s.Env
	fmt.Printf("# commit %s seed %d nproc %d GOMAXPROCS %d %s; %s; %d repetitions of %gs\n",
		e.Commit, e.Seed, e.NProc, e.GOMAXPROCS, e.GoVersion, e.FlushPolicy, e.Repetitions, e.Seconds)
	for _, wr := range s.Workloads {
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				m := wr.Metrics[d.name]
				fmt.Printf("%s %s %v %s", wr.Name, d.name, m.Value, m.Unit)
				if m.N > 1 && !m.Exact {
					fmt.Printf("  (q1 %v q3 %v n %d)", m.Q1, m.Q3, m.N)
				}
				fmt.Println()
			}
		}
		fmt.Printf("%s failed_ops_share %v ratio\n", wr.Name, wr.failedShare())
	}
}

// failedShare is ops that returned an error or failed the read-back check
// ÷ ops attempted, over every run of the workload. Its bound is 0.
func (wr *workloadResult) failedShare() float64 {
	var failed, attempted int64
	for _, r := range wr.Runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	if attempted == 0 {
		return 1 // a workload that attempted nothing did not pass
	}
	return float64(failed) / float64(attempted)
}

// selfCheck runs the suite twice on the same code and compares the two:
// the benchmark's own test that its bounds are wider than its noise.
func selfCheck(cfg suiteConfig) error {
	var suites [2]*suiteResult
	for i, label := range []string{"selfcheck-a", "selfcheck-b"} {
		cfg.label = label
		var err error
		if suites[i], err = runSuite(cfg); err != nil {
			return err
		}
	}
	return compareSuites(suites[0], suites[1], true)
}

func loadSuite(file string) (*suiteResult, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	s := &suiteResult{}
	if err := json.Unmarshal(data, s); err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	return s, nil
}

// compareFiles judges result file B against baseline A. The two count as
// the same code when they name one commit and one seed; a -dirty tree is
// never the same code as anything, because HEAD does not say what ran.
func compareFiles(fileA, fileB string) error {
	a, err := loadSuite(fileA)
	if err != nil {
		return err
	}
	b, err := loadSuite(fileB)
	if err != nil {
		return err
	}
	sameCode := a.Env.Commit == b.Env.Commit && a.Env.Seed == b.Env.Seed &&
		a.Env.Commit != "unknown" && !strings.HasSuffix(a.Env.Commit, "-dirty")
	return compareSuites(a, b, sameCode)
}

// compareSuites prints one row per workload and metric. An end-to-end
// metric regresses when B's median is worse than A's by more than the
// metric's bound; it is unresolved, not unchanged, when either side's own
// quartile spread is wider than the bound. Exact metrics must be
// bit-identical when both suites ran the same code, and are held to
// sameSeedBound when they only share the seed. failed_ops_share must be 0
// on both sides. Suites of different run length or repetition count
// measured different things and are refused.
func compareSuites(a, b *suiteResult, sameCode bool) error {
	if a.Env.Seconds != b.Env.Seconds || a.Env.Repetitions != b.Env.Repetitions {
		return fmt.Errorf("not comparable: A is %d repetitions of %gs, B is %d of %gs",
			a.Env.Repetitions, a.Env.Seconds, b.Env.Repetitions, b.Env.Seconds)
	}
	sameSeed := a.Env.Seed == b.Env.Seed
	fmt.Printf("# A commit %s seed %d  B commit %s seed %d  same code: %v\n",
		a.Env.Commit, a.Env.Seed, b.Env.Commit, b.Env.Seed, sameCode)
	bad := 0
	byName := map[string]workloadResult{}
	for _, wr := range b.Workloads {
		byName[wr.Name] = wr
	}
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			fmt.Printf("%s: missing from B\n", wa.Name)
			bad++
			continue
		}
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				verdict := judge(d, wa.Metrics[d.name], wb.Metrics[d.name], sameCode, sameSeed)
				if strings.HasPrefix(verdict, "REGRESSED") || verdict == "DIFFERS" {
					bad++
				}
				fmt.Printf("%s %s A %v B %v %s %s\n", wa.Name, d.name,
					wa.Metrics[d.name].Value, wb.Metrics[d.name].Value, d.unit, verdict)
			}
		}
		fa, fb, verdict := wa.failedShare(), wb.failedShare(), "zero"
		if fa != 0 || fb != 0 {
			verdict = "FAILED (bound 0)"
			bad++
		}
		fmt.Printf("%s failed_ops_share A %v B %v ratio %s\n", wa.Name, fa, fb, verdict)
	}
	if bad > 0 {
		return fmt.Errorf("%d rows regressed, differ or have failed ops", bad)
	}
	return nil
}

func judge(d metricDef, a, b summary, sameCode, sameSeed bool) string {
	bound := d.bound
	if d.exact {
		if sameCode {
			if a.Value != b.Value {
				return "DIFFERS"
			}
			return "identical"
		}
		if sameSeed {
			bound = min(bound, sameSeedBound)
		}
	}
	if bound == 0 {
		return "-" // per-layer metrics carry no bound
	}
	spread := func(s summary) float64 {
		if s.Value == 0 {
			return 0
		}
		return (s.Q3 - s.Q1) / s.Value
	}
	worse := (b.Value - a.Value) / a.Value
	if d.better == "higher" {
		worse = -worse
	}
	switch {
	case worse > bound:
		return fmt.Sprintf("REGRESSED (%+.1f%% worse, bound %.0f%%)", 100*worse, 100*bound)
	case !d.exact && (spread(a) > bound || spread(b) > bound):
		return fmt.Sprintf("unresolved (spread A %.1f%% B %.1f%% exceeds bound %.0f%%)",
			100*spread(a), 100*spread(b), 100*bound)
	case worse < -bound:
		return fmt.Sprintf("improved (%+.1f%%)", -100*worse)
	default:
		return fmt.Sprintf("unchanged (%+.1f%% worse, bound %.0f%%)", 100*worse, 100*bound)
	}
}
