package experiments

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"hyperloop/internal/report"
)

// runQuick executes an experiment at Quick scale and sanity-checks the
// report structure.
func runQuick(t *testing.T, name string) *report.Report {
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

// dur reads a duration cell by column name.
func dur(tbl *report.Table, row int, column string) time.Duration {
	return tbl.Cell(row, column).(time.Duration)
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
	tbl := runQuick(t, "fig8a").Tables[0]
	// HyperLoop p99 must be µs-scale and far below naive p99 at every size.
	for row := range tbl.Rows {
		naive, hyper := dur(tbl, row, "naive p99"), dur(tbl, row, "hyperloop p99")
		if hyper > 100*time.Microsecond {
			t.Errorf("row %d: hyperloop p99 = %v, want µs-scale", row, hyper)
		}
		if naive < 5*hyper {
			t.Errorf("row %d: naive p99 %v not well above hyperloop %v", row, naive, hyper)
		}
	}
}

func TestFig8bShape(t *testing.T) {
	tbl := runQuick(t, "fig8b").Tables[0]
	naive, hyper := dur(tbl, 0, "naive p99"), dur(tbl, 0, "hyperloop p99")
	if naive < 5*hyper {
		t.Errorf("gMEMCPY: naive p99 %v not well above hyperloop %v", naive, hyper)
	}
}

func TestTable2Shape(t *testing.T) {
	tbl := runQuick(t, "table2").Tables[0]
	naiveP99, hyperP99 := dur(tbl, 0, "p99"), dur(tbl, 1, "p99")
	if hyperP99 > 100*time.Microsecond {
		t.Errorf("hyperloop gCAS p99 = %v", hyperP99)
	}
	if naiveP99 < 10*hyperP99 {
		t.Errorf("naive gCAS p99 %v not ≫ hyperloop %v", naiveP99, hyperP99)
	}
}

func TestFig9Shape(t *testing.T) {
	tbl := runQuick(t, "fig9").Tables[0]
	// HyperLoop CPU column must be 0% on every row; naive must not be.
	sawNaiveCPU := false
	for row := range tbl.Rows {
		if got := tbl.Cell(row, "hyperloop CPU%").(float64); got != 0 {
			t.Errorf("row %d: hyperloop CPU = %v%%, want 0%%", row, got)
		}
		if tbl.Cell(row, "naive CPU%").(float64) > 0 {
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
	for row := range r.Tables[1].Rows {
		if p99 := dur(r.Tables[1], row, "G=7"); p99 > 200*time.Microsecond {
			t.Errorf("hyperloop G=7 p99 = %v, want µs-scale", p99)
		}
	}
}

func TestFig2aShape(t *testing.T) {
	tbl := runQuick(t, "fig2a").Tables[0]
	first, last := dur(tbl, 0, "avg"), dur(tbl, len(tbl.Rows)-1, "avg")
	if last <= first {
		t.Errorf("latency did not grow with replica-sets: %v → %v", first, last)
	}
}

func TestFig2bShape(t *testing.T) {
	tbl := runQuick(t, "fig2b").Tables[0]
	fewCores, manyCores := dur(tbl, 0, "avg"), dur(tbl, len(tbl.Rows)-1, "avg")
	if manyCores >= fewCores {
		t.Errorf("more cores did not reduce latency: %v → %v", fewCores, manyCores)
	}
}

func TestFig11Shape(t *testing.T) {
	tbl := runQuick(t, "fig11").Tables[0]
	if len(tbl.Rows) != 3 {
		t.Fatalf("fig11 rows = %d", len(tbl.Rows))
	}
	naiveEventP99, hyperP99 := dur(tbl, 0, "p99"), dur(tbl, 2, "p99")
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
	native, hyper := r.Tables[0], r.Tables[1]
	for row := range native.Rows {
		if nat, hyp := dur(native, row, "avg"), dur(hyper, row, "avg"); hyp > nat {
			t.Errorf("workload %s: hyperloop avg %v > native %v", native.Cell(row, "workload"), hyp, nat)
		}
	}
}

func TestTable3Matches(t *testing.T) {
	tbl := runQuick(t, "table3").Tables[0]
	if len(tbl.Rows) != 5 {
		t.Fatalf("table3 rows = %d", len(tbl.Rows))
	}
	if tbl.Cell(0, "read") != 50.0 || tbl.Cell(0, "update") != 50.0 {
		t.Errorf("workload A row = %v", tbl.Rows[0])
	}
	if tbl.Cell(3, "workload") != "E" || tbl.Cell(3, "scan") != 95.0 {
		t.Errorf("workload E row = %v", tbl.Rows[3])
	}
}

func TestAblations(t *testing.T) {
	tbl := runQuick(t, "abl-load").Tables[0]
	// Idle naive must be µs-scale — scheduling, not CPU speed, is the cause.
	idleNaive := dur(tbl, 0, "p99")
	if idleNaive > 500*time.Microsecond {
		t.Errorf("idle naive p99 = %v, want µs-scale", idleNaive)
	}

	tbl = runQuick(t, "abl-flush").Tables[0]
	if vol, durable := dur(tbl, 0, "avg"), dur(tbl, 1, "avg"); durable <= vol {
		t.Errorf("durable write (%v) not slower than volatile (%v)", durable, vol)
	}

	tbl = runQuick(t, "abl-depth").Tables[0]
	for row := range tbl.Rows {
		if kops := tbl.Cell(row, "Kops/s").(float64); kops <= 0 {
			t.Errorf("depth %v: %v Kops/s", tbl.Cell(row, "depth"), kops)
		}
	}
}

// TestShardsShape pins the two claims of the shards report: the chain
// datapath's tenant p99 is one value for every tenant under both
// placements, within the rounding of 8.32 µs; and a transaction costs what a
// commit-logged Router.Txn costs on these 2-replica chains —
// internal/shard's BenchmarkRouterTxn reads 34.35 / 34.42 / 34.46
// virt-us/op at spans 1 / 2 / 4 — whatever its span. A transaction
// without the commit record would read ≈ 24 µs.
func TestShardsShape(t *testing.T) {
	r := runQuick(t, "shards")
	iso, chainP99 := r.Tables[0], time.Duration(0)
	for row := range iso.Rows {
		if iso.Cell(row, "datapath") != "chain" {
			continue
		} else if chainP99 == 0 {
			chainP99 = dur(iso, row, "p99")
		}
		if p99 := dur(iso, row, "p99"); p99 != chainP99 || p99 < 8315*time.Nanosecond || p99 >= 8325*time.Nanosecond {
			t.Errorf("row %d: chain/%s tenant p99 = %v, want 8.32µs, the same for every tenant and placement",
				row, iso.Cell(row, "placement"), p99)
		}
	}
	if chainP99 == 0 {
		t.Fatal("no chain rows in the tenant table")
	}
	routerTxn := []time.Duration{34350, 34420, 34460} // ns, spans 1 / 2 / 4
	txn := r.Tables[1]
	if len(txn.Rows) != len(routerTxn) {
		t.Fatalf("txn table has %d rows, want one per span", len(txn.Rows))
	}
	for row, want := range routerTxn {
		avg := dur(txn, row, "avg")
		if avg < want*95/100 || avg > want*105/100 {
			t.Errorf("span %v: avg = %v, want within 5%% of the logged %v", txn.Cell(row, "span"), avg, want)
		}
	}
	span1, span4 := dur(txn, 0, "avg"), dur(txn, 2, "avg")
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
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed experiment differs:\n%s\nvs\n%s", a, b)
	}
}
