package experiments

import (
	"strings"
	"testing"
	"time"
)

// runQuick executes an experiment at Quick scale and sanity-checks the
// report structure.
func runQuick(t *testing.T, name string) *Report {
	t.Helper()
	r, err := Run(name, 1, Quick)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if r.ID != name {
		t.Fatalf("report id = %s, want %s", r.ID, name)
	}
	if len(r.Tables) == 0 {
		t.Fatalf("%s: no tables", name)
	}
	out := r.String()
	if !strings.Contains(out, r.Title) {
		t.Fatalf("%s: report string missing title", name)
	}
	return r
}

// p99 extracts a duration cell from a table for assertions.
func cell(t *testing.T, r *Report, table, row, col int) string {
	t.Helper()
	if table >= len(r.Tables) || row >= len(r.Tables[table].Rows) {
		t.Fatalf("report %s: no cell (%d,%d,%d)", r.ID, table, row, col)
	}
	return r.Tables[table].Rows[row][col]
}

func parseDur(t *testing.T, s string) time.Duration {
	t.Helper()
	// Our formatter prints e.g. "12.1µs", "2.85ms", "1.02s".
	d, err := time.ParseDuration(s)
	if err != nil {
		t.Fatalf("cannot parse duration %q: %v", s, err)
	}
	return d
}

// TestRegistryComplete: the registry lists every id exactly once — the
// 18 paper experiments, then the claim scenarios — and each has a
// description.
func TestRegistryComplete(t *testing.T) {
	order := Order()
	seen := map[string]bool{}
	for i, id := range order {
		if seen[id] {
			t.Fatalf("Order()[%d] = %q: listed twice", i, id)
		}
		seen[id] = true
		if Describe(id) == "" {
			t.Fatalf("experiment %s has no description", id)
		}
	}
	if got := order[len(order)-len(scenarios):]; strings.Join(got, " ") != strings.Join(scenarios, " ") {
		t.Fatalf("Order() ends with %v, want the scenarios %v", got, scenarios)
	}
	if _, err := Run("nope", 1, Quick); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestBackendStrings(t *testing.T) {
	for _, b := range []Backend{BackendHyperLoop, BackendNaiveEvent, BackendNaivePolling, BackendNaivePinned, Backend(9)} {
		if b.String() == "" {
			t.Fatal("empty backend string")
		}
	}
}

func TestFig8aShape(t *testing.T) {
	r := runQuick(t, "fig8a")
	// HyperLoop p99 must be µs-scale and far below naive p99 at every size.
	for row := range r.Tables[0].Rows {
		naive := parseDur(t, cell(t, r, 0, row, 2))
		hyper := parseDur(t, cell(t, r, 0, row, 4))
		if hyper > 100*time.Microsecond {
			t.Errorf("row %d: hyperloop p99 = %v, want µs-scale", row, hyper)
		}
		if naive < 5*hyper {
			t.Errorf("row %d: naive p99 %v not well above hyperloop %v", row, naive, hyper)
		}
	}
}

func TestFig8bShape(t *testing.T) {
	r := runQuick(t, "fig8b")
	naive := parseDur(t, cell(t, r, 0, 0, 2))
	hyper := parseDur(t, cell(t, r, 0, 0, 4))
	if naive < 5*hyper {
		t.Errorf("gMEMCPY: naive p99 %v not well above hyperloop %v", naive, hyper)
	}
}

func TestTable2Shape(t *testing.T) {
	r := runQuick(t, "table2")
	naiveP99 := parseDur(t, cell(t, r, 0, 0, 3))
	hyperP99 := parseDur(t, cell(t, r, 0, 1, 3))
	if hyperP99 > 100*time.Microsecond {
		t.Errorf("hyperloop gCAS p99 = %v", hyperP99)
	}
	if naiveP99 < 10*hyperP99 {
		t.Errorf("naive gCAS p99 %v not ≫ hyperloop %v", naiveP99, hyperP99)
	}
}

func TestFig9Shape(t *testing.T) {
	r := runQuick(t, "fig9")
	// HyperLoop CPU column must be 0% on every row; naive must not be.
	sawNaiveCPU := false
	for row := range r.Tables[0].Rows {
		if got := cell(t, r, 0, row, 4); got != "0%" {
			t.Errorf("row %d: hyperloop CPU = %s, want 0%%", row, got)
		}
		if cell(t, r, 0, row, 2) != "0%" {
			sawNaiveCPU = true
		}
	}
	if !sawNaiveCPU {
		t.Error("naive CPU column all zero — replica handlers unaccounted")
	}
}

func TestFig10Shape(t *testing.T) {
	r := runQuick(t, "fig10")
	if len(r.Tables) != 2 {
		t.Fatalf("fig10 has %d tables", len(r.Tables))
	}
	// HyperLoop's G=7 p99 must stay µs-scale.
	hyperTbl := r.Tables[1]
	for row := range hyperTbl.Rows {
		p99g7 := parseDur(t, hyperTbl.Rows[row][3])
		if p99g7 > 200*time.Microsecond {
			t.Errorf("hyperloop G=7 p99 = %v, want µs-scale", p99g7)
		}
	}
}

func TestFig2aShape(t *testing.T) {
	r := runQuick(t, "fig2a")
	rows := r.Tables[0].Rows
	first := parseDur(t, rows[0][1])
	last := parseDur(t, rows[len(rows)-1][1])
	if last <= first {
		t.Errorf("latency did not grow with replica-sets: %v → %v", first, last)
	}
}

func TestFig2bShape(t *testing.T) {
	r := runQuick(t, "fig2b")
	rows := r.Tables[0].Rows
	fewCores := parseDur(t, rows[0][1])
	manyCores := parseDur(t, rows[len(rows)-1][1])
	if manyCores >= fewCores {
		t.Errorf("more cores did not reduce latency: %v → %v", fewCores, manyCores)
	}
}

func TestFig11Shape(t *testing.T) {
	r := runQuick(t, "fig11")
	rows := r.Tables[0].Rows
	if len(rows) != 3 {
		t.Fatalf("fig11 rows = %d", len(rows))
	}
	naiveEventP99 := parseDur(t, rows[0][3])
	hyperP99 := parseDur(t, rows[2][3])
	if naiveEventP99 < 2*hyperP99 {
		t.Errorf("KV store: naive-event p99 %v not well above hyperloop %v", naiveEventP99, hyperP99)
	}
}

func TestFig12Shape(t *testing.T) {
	r := runQuick(t, "fig12")
	if len(r.Tables) != 2 {
		t.Fatalf("fig12 has %d tables", len(r.Tables))
	}
	// Every workload: hyperloop avg ≤ native avg.
	for row := range r.Tables[0].Rows {
		nat := parseDur(t, r.Tables[0].Rows[row][1])
		hyp := parseDur(t, r.Tables[1].Rows[row][1])
		if hyp > nat {
			t.Errorf("workload %s: hyperloop avg %v > native %v",
				r.Tables[0].Rows[row][0], hyp, nat)
		}
	}
}

func TestTable3Matches(t *testing.T) {
	r := runQuick(t, "table3")
	rows := r.Tables[0].Rows
	if len(rows) != 5 {
		t.Fatalf("table3 rows = %d", len(rows))
	}
	if rows[0][1] != "50" || rows[0][2] != "50" {
		t.Errorf("workload A row = %v", rows[0])
	}
	if rows[3][5] != "95" { // E: 95% scan
		t.Errorf("workload E row = %v", rows[3])
	}
}

func TestAblations(t *testing.T) {
	r := runQuick(t, "abl-load")
	// Idle naive must be µs-scale — scheduling, not CPU speed, is the cause.
	idleNaive := parseDur(t, cell(t, r, 0, 0, 3))
	if idleNaive > 500*time.Microsecond {
		t.Errorf("idle naive p99 = %v, want µs-scale", idleNaive)
	}

	r = runQuick(t, "abl-flush")
	vol := parseDur(t, cell(t, r, 0, 0, 1))
	dur := parseDur(t, cell(t, r, 0, 1, 1))
	if dur <= vol {
		t.Errorf("durable write (%v) not slower than volatile (%v)", dur, vol)
	}

	r = runQuick(t, "abl-depth")
	shallow := r.Tables[0].Rows[0][1]
	deep := r.Tables[0].Rows[len(r.Tables[0].Rows)-1][1]
	if shallow == "" || deep == "" {
		t.Error("depth ablation empty")
	}
}

// TestShardsShape pins the two claims of the shards report: the chain
// datapath's tenant p99 is the same 8.32 µs under both placements, and a
// transaction costs what a commit-logged Router.Txn costs on these
// 2-replica chains — internal/shard's BenchmarkRouterTxn reads 34.35 /
// 34.42 / 34.46 virt-us/op at spans 1 / 2 / 4 — whatever its span. A
// transaction without the commit record would read ≈ 24 µs.
func TestShardsShape(t *testing.T) {
	r := runQuick(t, "shards")
	for row, cells := range r.Tables[0].Rows {
		if cells[0] == "chain" && cells[6] != "8.32µs" {
			t.Errorf("row %d: chain/%s tenant %s p99 = %s, want 8.32µs", row, cells[1], cells[2], cells[6])
		}
	}
	routerTxn := []time.Duration{34350, 34420, 34460} // ns, spans 1 / 2 / 4
	txn := r.Tables[1].Rows
	if len(txn) != len(routerTxn) {
		t.Fatalf("txn table has %d rows, want one per span", len(txn))
	}
	for row, want := range routerTxn {
		avg := parseDur(t, cell(t, r, 1, row, 2))
		if avg < want*95/100 || avg > want*105/100 {
			t.Errorf("span %s: avg = %v, want within 5%% of the logged %v", txn[row][0], avg, want)
		}
	}
	span1, span4 := parseDur(t, cell(t, r, 1, 0, 2)), parseDur(t, cell(t, r, 1, 2, 2))
	if span4*10 > span1*11 {
		t.Errorf("span 4 avg = %v, more than 1.1 × span 1's %v", span4, span1)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	a, err := Run("table2", 42, Quick)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("table2", 42, Quick)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("same-seed experiment differs:\n%s\nvs\n%s", a, b)
	}
}
