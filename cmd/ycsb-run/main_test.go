package main

import (
	"io"
	"strings"
	"testing"

	"hyperloop/internal/report"
)

func TestRunRejectsBadFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown flag", []string{"-nope"}, "flag provided but not defined"},
		{"bad db", []string{"-db", "graph"}, `unknown -db "graph"`},
		{"bad backend", []string{"-backend", "tcp"}, `unknown backend "tcp"`},
		{"bad workload", []string{"-workload", "Z"}, "unknown workload"},
		// Go's flag package stops at the first non-flag, so "-load false"
		// would silently drop -backend and everything after it.
		{"stray bool value", []string{"-load", "false", "-backend", "naive-event"}, `unexpected argument "false"`},
		{"stray word", []string{"kv", "-workload", "B"}, `unexpected argument "kv"`},
		{"zero shards", []string{"-shards", "0"}, "-shards must be >= 1"},
		{"negative shards", []string{"-shards", "-4"}, "-shards must be >= 1"},
		{"zero replicas", []string{"-replicas", "0"}, "-replicas must be >= 1"},
		// A sharded run has one store and one naive datapath; it used to
		// run them under the title of whatever was asked for.
		{"sharded doc", []string{"-shards", "4", "-db", "doc"}, "-db doc is not available with -shards 4"},
		{"sharded polling", []string{"-shards", "4", "-backend", "naive-polling"}, "-backend naive-polling is not available with -shards 4"},
		{"sharded pinned", []string{"-shards", "2", "-backend", "naive-pinned"}, "-backend naive-pinned is not available with -shards 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := run(tc.args, io.Discard)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("run(%v) = %v, want error containing %q", tc.args, err, tc.want)
			}
		})
	}
}

// smokeArgs keeps the simulated runs small enough for the test suite.
func smokeArgs(extra ...string) []string {
	return append([]string{"-records", "40", "-ops", "120", "-value", "128", "-load=false"}, extra...)
}

func TestRunKVSmoke(t *testing.T) {
	var out strings.Builder
	tbl, err := run(smokeArgs("-db", "kv", "-workload", "A"), &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	assertTableShape(t, tbl, out.String(), "YCSB-A on kv store, hyperloop backend (40 records, 120 ops)")
}

func TestRunShardedSmoke(t *testing.T) {
	var out strings.Builder
	tbl, err := run(smokeArgs("-shards", "8", "-workload", "A"), &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	assertTableShape(t, tbl, out.String(), "YCSB-A on sharded×8 store, hyperloop backend (40 records, 120 ops)")
}

func TestRunShardedTxnPath(t *testing.T) {
	// Workload F's read-modify-writes go through the cross-shard 2PC path.
	var out strings.Builder
	tbl, err := run(smokeArgs("-shards", "4", "-workload", "F", "-backend", "naive-event"), &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	assertTableShape(t, tbl, got, "YCSB-F on sharded×4 store, naive-event backend (40 records, 120 ops)")
	if !strings.Contains(got, "modify") {
		t.Errorf("no read-modify-write rows in sharded txn run:\n%s", got)
	}
	if strings.Contains(got, "errors:") {
		t.Errorf("sharded txn run reported op errors:\n%s", got)
	}
}

func TestRunDocSmoke(t *testing.T) {
	var out strings.Builder
	tbl, err := run(smokeArgs("-db", "doc", "-workload", "B", "-backend", "naive-event"), &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	assertTableShape(t, tbl, out.String(), "YCSB-B on doc store, naive-event backend (40 records, 120 ops)")
}

// assertTableShape checks the run's table and its printed form: the title
// and column header printed, at least one per-op row, and the trailing
// overall row whose count covers every operation.
func assertTableShape(t *testing.T, tbl *report.Table, got, title string) {
	t.Helper()
	if tbl.Title != title || !strings.Contains(got, title) {
		t.Errorf("table %q, want %q:\n%s", tbl.Title, title, got)
	}
	if !strings.Contains(got, "operation") || !strings.Contains(got, "p99") {
		t.Errorf("output missing column header:\n%s", got)
	}
	last := len(tbl.Rows) - 1
	if last < 1 || tbl.Cell(last, "operation") != "overall" || tbl.Cell(last, "count") != int64(120) {
		t.Errorf("rows %v: want per-op rows, then an overall row counting the 120 ops", tbl.Rows)
	}
	if strings.Contains(got, "errors:") {
		t.Errorf("workload reported errors:\n%s", got)
	}
}

func TestRunDeterministicAcrossRepeats(t *testing.T) {
	// The whole run is virtual-time simulation: identical flags must give
	// byte-identical output.
	var a, b strings.Builder
	if _, err := run(smokeArgs("-db", "kv", "-workload", "F", "-seed", "7"), &a); err != nil {
		t.Fatalf("first run: %v", err)
	}
	if _, err := run(smokeArgs("-db", "kv", "-workload", "F", "-seed", "7"), &b); err != nil {
		t.Fatalf("second run: %v", err)
	}
	if a.String() != b.String() {
		t.Errorf("output differs across identical runs:\n--- first\n%s\n--- second\n%s", a.String(), b.String())
	}
}
