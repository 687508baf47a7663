package ycsb

import (
	"math"
	"testing"
	"testing/quick"

	"hyperloop/internal/sim"
)

func TestTable3Proportions(t *testing.T) {
	// The exact op mixes of the paper's Table 3.
	cases := []struct {
		w                                  Workload
		read, update, insert, modify, scan float64
	}{
		{WorkloadA, 0.5, 0.5, 0, 0, 0},
		{WorkloadB, 0.95, 0.05, 0, 0, 0},
		{WorkloadD, 0.95, 0, 0.05, 0, 0},
		{WorkloadE, 0, 0, 0.05, 0, 0.95},
		{WorkloadF, 0.5, 0, 0, 0.5, 0},
	}
	for _, c := range cases {
		if c.w.Read != c.read || c.w.Update != c.update || c.w.Insert != c.insert ||
			c.w.Modify != c.modify || c.w.Scan != c.scan {
			t.Errorf("workload %s mix = %+v", c.w.Name, c.w)
		}
		sum := c.w.Read + c.w.Update + c.w.Insert + c.w.Modify + c.w.Scan
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("workload %s proportions sum to %v", c.w.Name, sum)
		}
	}
	if WorkloadD.Dist != DistLatest {
		t.Error("workload D must use the latest distribution")
	}
	if WorkloadE.MaxScanLen <= 0 {
		t.Error("workload E needs a scan length")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"A", "B", "D", "E", "F"} {
		w, err := ByName(name)
		if err != nil || w.Name != name {
			t.Fatalf("ByName(%s) = %+v, %v", name, w, err)
		}
	}
	if _, err := ByName("C"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestPickMatchesProportions(t *testing.T) {
	rng := sim.NewRNG(1)
	counts := make(map[OpType]int)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[WorkloadA.pick(rng)]++
	}
	readFrac := float64(counts[OpRead]) / n
	if readFrac < 0.48 || readFrac > 0.52 {
		t.Fatalf("workload A read fraction = %v", readFrac)
	}
	if counts[OpInsert]+counts[OpScan]+counts[OpModify] != 0 {
		t.Fatalf("workload A produced unexpected ops: %v", counts)
	}
}

func TestUniformBounds(t *testing.T) {
	u := NewUniform(sim.NewRNG(2))
	f := func(n uint16) bool {
		m := int(n)%1000 + 1
		v := u.Next(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if u.Next(0) != 0 {
		t.Fatal("Next(0) != 0")
	}
}

func TestZipfianSkew(t *testing.T) {
	z := NewZipfian(sim.NewRNG(3), 1000, ZipfianConstant)
	counts := make([]int, 1000)
	const n = 200000
	for i := 0; i < n; i++ {
		idx := z.Next(1000)
		if idx < 0 || idx >= 1000 {
			t.Fatalf("zipfian out of range: %d", idx)
		}
		counts[idx]++
	}
	// Head must be far more popular than the tail.
	if counts[0] < 20*counts[900] && counts[900] > 0 {
		t.Fatalf("zipfian not skewed: head=%d tail=%d", counts[0], counts[900])
	}
	// Head frequency for theta=0.99, n=1000 is ≈ 1/zetan ≈ 13%.
	frac := float64(counts[0]) / n
	if frac < 0.08 || frac > 0.25 {
		t.Fatalf("head fraction = %v, want ≈0.13", frac)
	}
}

func TestScrambledZipfianSpreadsHead(t *testing.T) {
	s := NewScrambledZipfian(sim.NewRNG(4), 1000)
	counts := make(map[int]int)
	for i := 0; i < 100000; i++ {
		idx := s.Next(1000)
		if idx < 0 || idx >= 1000 {
			t.Fatalf("scrambled out of range: %d", idx)
		}
		counts[idx]++
	}
	// The most popular item should NOT be index 0 (hashed away) but some
	// item must still dominate.
	maxIdx, maxCount := 0, 0
	for k, v := range counts {
		if v > maxCount {
			maxIdx, maxCount = k, v
		}
	}
	if maxCount < 5000 {
		t.Fatalf("no hot key after scrambling: max=%d", maxCount)
	}
	_ = maxIdx
}

func TestLatestFavorsRecent(t *testing.T) {
	l := NewLatest(sim.NewRNG(5), 1000)
	recent, old := 0, 0
	for i := 0; i < 100000; i++ {
		idx := l.Next(1000)
		if idx >= 900 {
			recent++
		}
		if idx < 100 {
			old++
		}
	}
	if recent < 10*old {
		t.Fatalf("latest distribution not recency-skewed: recent=%d old=%d", recent, old)
	}
}

func TestGeneratorGrowsWithInserts(t *testing.T) {
	l := NewLatest(sim.NewRNG(6), 10)
	seen := false
	for i := 0; i < 1000; i++ {
		if l.Next(100) >= 10 {
			seen = true
		}
	}
	if !seen {
		t.Fatal("generator ignored keyspace growth")
	}
}

func TestKeyFormat(t *testing.T) {
	if Key(42) != "user000000000042" {
		t.Fatalf("Key(42) = %q", Key(42))
	}
}

// fakeDB counts ops and simulates fixed latencies.
type fakeDB struct {
	reads, updates, inserts, modifies, scans int
}

func (d *fakeDB) Read(f *sim.Fiber, key int) error { d.reads++; f.Sleep(sim.Microsecond); return nil }
func (d *fakeDB) Update(f *sim.Fiber, key int, v []byte) error {
	d.updates++
	f.Sleep(2 * sim.Microsecond)
	return nil
}
func (d *fakeDB) Insert(f *sim.Fiber, key int, v []byte) error {
	d.inserts++
	f.Sleep(2 * sim.Microsecond)
	return nil
}
func (d *fakeDB) Scan(f *sim.Fiber, start, count int) error {
	d.scans++
	f.Sleep(sim.Duration(count) * sim.Microsecond)
	return nil
}
func (d *fakeDB) ReadModifyWrite(f *sim.Fiber, key int, v []byte) error {
	d.modifies++
	f.Sleep(3 * sim.Microsecond)
	return nil
}

func TestRunnerDrivesWorkload(t *testing.T) {
	k := sim.NewKernel(9)
	db := &fakeDB{}
	r := NewRunner(RunnerConfig{
		Workload:    WorkloadA,
		RecordCount: 100,
		OpCount:     1000,
		ValueSize:   64,
		Seed:        1,
	})
	var res *Result
	k.Spawn("runner", func(f *sim.Fiber) {
		if err := r.Load(f, db); err != nil {
			t.Errorf("load: %v", err)
			return
		}
		var err error
		res, err = r.Run(f, db)
		if err != nil {
			t.Errorf("run: %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if db.inserts != 100 { // loads only; A has no inserts
		t.Fatalf("inserts = %d", db.inserts)
	}
	if res.Ops != 1000 || res.Errors != 0 {
		t.Fatalf("ops=%d errors=%d", res.Ops, res.Errors)
	}
	if db.reads < 400 || db.reads > 600 {
		t.Fatalf("reads = %d, want ≈500", db.reads)
	}
	if db.updates+db.reads != 1000 {
		t.Fatalf("A mix wrong: %+v", db)
	}
	if res.Overall.Count() != 1000 {
		t.Fatalf("histogram count = %d", res.Overall.Count())
	}
	if res.ByOp[OpUpdate].MeanDuration() <= res.ByOp[OpRead].MeanDuration() {
		t.Fatal("per-op histograms not separated")
	}
}

func TestRunnerWorkloadEInsertsGrowKeyspace(t *testing.T) {
	k := sim.NewKernel(10)
	db := &fakeDB{}
	r := NewRunner(RunnerConfig{Workload: WorkloadE, RecordCount: 50, OpCount: 500, Seed: 2})
	k.Spawn("runner", func(f *sim.Fiber) {
		if err := r.Load(f, db); err != nil {
			t.Errorf("load: %v", err)
			return
		}
		if _, err := r.Run(f, db); err != nil {
			t.Errorf("run: %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if db.scans < 400 {
		t.Fatalf("scans = %d, want ≈475", db.scans)
	}
	if db.inserts <= 50 {
		t.Fatal("workload E never inserted")
	}
	if r.keys <= 50 {
		t.Fatal("keyspace did not grow")
	}
}

func TestDistributionStrings(t *testing.T) {
	for _, d := range []Distribution{DistUniform, DistZipfian, DistLatest, Distribution(9)} {
		if d.String() == "" {
			t.Fatal("empty distribution string")
		}
	}
	for _, o := range []OpType{OpRead, OpUpdate, OpInsert, OpModify, OpScan, OpType(9)} {
		if o.String() == "" {
			t.Fatal("empty op string")
		}
	}
}
