package ycsb

import (
	"fmt"

	"hyperloop/internal/metrics"
	"hyperloop/internal/sim"
)

// OpType is one YCSB operation kind.
type OpType int

// Operation kinds (Table 3 columns).
const (
	OpRead OpType = iota + 1
	OpUpdate
	OpInsert
	OpModify // read-modify-write
	OpScan
)

// String returns the op name.
func (o OpType) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpUpdate:
		return "update"
	case OpInsert:
		return "insert"
	case OpModify:
		return "modify"
	case OpScan:
		return "scan"
	default:
		return fmt.Sprintf("OpType(%d)", int(o))
	}
}

// Workload is a YCSB core workload definition.
type Workload struct {
	Name string
	// Proportions, summing to 1 (Table 3, in percent there).
	Read, Update, Insert, Modify, Scan float64
	// Dist is the request distribution.
	Dist Distribution
	// MaxScanLen bounds scan lengths (uniform in [1, MaxScanLen]).
	MaxScanLen int
}

// The paper's Table 3 workloads.
var (
	// WorkloadA is 50% read / 50% update, zipfian.
	WorkloadA = Workload{Name: "A", Read: 0.5, Update: 0.5, Dist: DistZipfian}
	// WorkloadB is 95% read / 5% update, zipfian.
	WorkloadB = Workload{Name: "B", Read: 0.95, Update: 0.05, Dist: DistZipfian}
	// WorkloadD is 95% read / 5% insert, latest.
	WorkloadD = Workload{Name: "D", Read: 0.95, Insert: 0.05, Dist: DistLatest}
	// WorkloadE is 95% scan / 5% insert, zipfian.
	WorkloadE = Workload{Name: "E", Scan: 0.95, Insert: 0.05, Dist: DistZipfian, MaxScanLen: 100}
	// WorkloadF is 50% read / 50% read-modify-write, zipfian.
	WorkloadF = Workload{Name: "F", Read: 0.5, Modify: 0.5, Dist: DistZipfian}
)

// Workloads returns the Table 3 set in paper order.
func Workloads() []Workload {
	return []Workload{WorkloadA, WorkloadB, WorkloadD, WorkloadE, WorkloadF}
}

// ByName returns the named workload.
func ByName(name string) (Workload, error) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("ycsb: unknown workload %q", name)
}

// pick chooses an op type per the workload proportions.
func (w Workload) pick(rng *sim.RNG) OpType {
	r := rng.Float64()
	switch {
	case r < w.Read:
		return OpRead
	case r < w.Read+w.Update:
		return OpUpdate
	case r < w.Read+w.Update+w.Insert:
		return OpInsert
	case r < w.Read+w.Update+w.Insert+w.Modify:
		return OpModify
	default:
		return OpScan
	}
}

// DB is the store interface the runner drives. Key encoding and value
// construction are the adapter's concern.
type DB interface {
	Read(f *sim.Fiber, key int) error
	Update(f *sim.Fiber, key int, value []byte) error
	Insert(f *sim.Fiber, key int, value []byte) error
	Scan(f *sim.Fiber, startKey, count int) error
	ReadModifyWrite(f *sim.Fiber, key int, value []byte) error
}

// Key renders the canonical YCSB key for index i.
func Key(i int) string { return fmt.Sprintf("user%012d", i) }

// RunnerConfig parameterizes a workload run.
type RunnerConfig struct {
	Workload    Workload
	RecordCount int // preloaded records
	OpCount     int
	ValueSize   int
	Seed        uint64
}

// Result aggregates a run's latency distributions.
type Result struct {
	Overall *metrics.Histogram
	ByOp    map[OpType]*metrics.Histogram
	Ops     int
	Errors  int
}

// Runner drives a workload against a DB from a fiber.
type Runner struct {
	cfg  RunnerConfig
	rng  *sim.RNG
	gen  Generator
	keys int
}

// NewRunner builds a runner; Load must run before Run.
func NewRunner(cfg RunnerConfig) *Runner {
	if cfg.ValueSize <= 0 {
		cfg.ValueSize = 1024
	}
	rng := sim.NewRNG(cfg.Seed)
	return &Runner{
		cfg:  cfg,
		rng:  rng,
		gen:  NewGenerator(cfg.Workload.Dist, rng.Fork(), cfg.RecordCount),
		keys: cfg.RecordCount,
	}
}

func (r *Runner) value() []byte {
	v := make([]byte, r.cfg.ValueSize)
	for i := range v {
		v[i] = byte('a' + r.rng.Intn(26))
	}
	return v
}

// Load preloads RecordCount records.
func (r *Runner) Load(f *sim.Fiber, db DB) error {
	for i := 0; i < r.cfg.RecordCount; i++ {
		if err := db.Insert(f, i, r.value()); err != nil {
			return fmt.Errorf("load record %d: %w", i, err)
		}
	}
	return nil
}

// Run executes OpCount operations, returning latency distributions.
func (r *Runner) Run(f *sim.Fiber, db DB) (*Result, error) {
	res := &Result{
		Overall: metrics.NewHistogram(),
		ByOp:    make(map[OpType]*metrics.Histogram),
	}
	for _, op := range []OpType{OpRead, OpUpdate, OpInsert, OpModify, OpScan} {
		res.ByOp[op] = metrics.NewHistogram()
	}
	for i := 0; i < r.cfg.OpCount; i++ {
		op := r.cfg.Workload.pick(r.rng)
		start := f.Now()
		var err error
		switch op {
		case OpRead:
			err = db.Read(f, r.gen.Next(r.keys))
		case OpUpdate:
			err = db.Update(f, r.gen.Next(r.keys), r.value())
		case OpInsert:
			err = db.Insert(f, r.keys, r.value())
			if err == nil {
				r.keys++
			}
		case OpModify:
			err = db.ReadModifyWrite(f, r.gen.Next(r.keys), r.value())
		case OpScan:
			n := 1 + r.rng.Intn(max(r.cfg.Workload.MaxScanLen, 1))
			err = db.Scan(f, r.gen.Next(r.keys), n)
		}
		lat := f.Now().Sub(start)
		if err != nil {
			res.Errors++
		} else {
			res.Overall.RecordDuration(lat)
			res.ByOp[op].RecordDuration(lat)
			res.Ops++
		}
	}
	return res, nil
}
