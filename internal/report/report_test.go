package report

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// TestCommittedBaselinesMatchSchema fails when the committed baseline has
// gone stale relative to the schema: a field the schema dropped fails
// Load's strict decode, and one it gained (or any other change of
// encoding) makes the decoded report re-encode to different bytes.
// Refresh it with ./ci.sh -update-baseline.
func TestCommittedBaselinesMatchSchema(t *testing.T) {
	path := filepath.Join("..", "..", "BENCH_baseline.json")
	rep, err := Load(path)
	if err != nil {
		t.Fatalf("baseline no longer decodes against the schema — regenerate it: %v", err)
	}
	if len(rep.Experiments) == 0 {
		t.Fatal("baseline has no experiments")
	}
	again := filepath.Join(t.TempDir(), "again.json")
	if err := rep.Write(again); err != nil {
		t.Fatal(err)
	}
	data, errA := os.ReadFile(path)
	redone, errB := os.ReadFile(again)
	if errA != nil || errB != nil || string(data) != string(redone) {
		t.Fatalf("baseline does not re-encode to its own bytes under the schema (%v, %v) — regenerate it", errA, errB)
	}
}

func TestWriteLoadRoundTrip(t *testing.T) {
	tbl := NewTable("t", Text("name"), Dur("p99"))
	tbl.AddRow("a", nil)
	want := &BenchReport{
		Seed: 7, Scale: "quick", Procs: 2,
		Experiments: []*Report{{ID: "x", Claim: "c", Checks: []Check{{"holds", true, "yes"}},
			Tables: []*Table{tbl}, Notes: []string{"n"}, Counters: Counters{SimEvents: 3, Dups: 2}}},
	}
	path := filepath.Join(t.TempDir(), "r.json")
	if err := want.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
}

// TestCellRendering renders each cell kind at its edges, then sends the
// table through JSON and back: the same raw values, the same text.
func TestCellRendering(t *testing.T) {
	cases := []struct {
		col  Column
		v    any
		want string
	}{
		{Dur(""), 9999 * time.Nanosecond, "10.00µs"},
		{Dur(""), 10 * time.Microsecond, "10.0µs"},
		{Dur(""), 999900 * time.Nanosecond, "999.9µs"},
		{Dur(""), time.Millisecond, "1.00ms"},
		{Dur(""), 10 * time.Millisecond, "10.0ms"},
		{Dur(""), time.Second, "1.00s"},
		{Bytes(""), 1023, "1023B"},
		{Bytes(""), 1024, "1K"},
		{Bytes(""), 1 << 20, "1M"},
		{Count(""), int64(-3), "-3"},
		{Ratio("", 1), Over(800*time.Microsecond, 100*time.Microsecond), "8.0x"},
		{Ratio("", 2), Over(2, 3), "0.67x"},
		{Ratio("", 1), Over(5, 0), "inf"},
		{Percent("", 0), 49.5, "50%"},
		{Percent("", 1), 2.5, "2.5%"},
		{Float("", 2), 0.2011986301369863, "0.20"},
		{Text(""), "naive", "naive"},
		{Dur(""), nil, "-"},
		{Column{Unit: "ns", Missing: "never"}, nil, "never"},
	}
	tbl := NewTable("edges")
	var row []any
	for i, c := range cases {
		c.col.Name = fmt.Sprint("c", i)
		tbl.Columns, row = append(tbl.Columns, c.col), append(row, c.v)
	}
	tbl.AddRow(row...)
	for i, c := range cases {
		if got := c.col.format(tbl.Rows[0][i]); got != c.want {
			t.Errorf("%s cell %v renders %q, want %q", c.col.Unit, c.v, got, c.want)
		}
	}
	data, err := json.Marshal(tbl)
	if err != nil {
		t.Fatal(err)
	}
	var back Table
	if err := json.Unmarshal(data, &back); err != nil || !reflect.DeepEqual(&back, tbl) || back.String() != tbl.String() {
		t.Fatalf("JSON round trip (%v):\n%s\ngot  %+v\nwant %+v", err, data, back, *tbl)
	}
	if got := back.Cell(0, "c0"); got != 9999*time.Nanosecond {
		t.Errorf("Cell(0, c0) = %v, want the raw 9.999µs", got)
	}
}

// TestTableRejectsMistypedCells: a cell that does not fit its column fails
// AddRow, and fails to decode.
func TestTableRejectsMistypedCells(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("a float in a duration column was accepted")
		}
	}()
	for _, bad := range []string{`[["12.3µs"]]`, `[[1, 2]]`, `[[{"num":1}]]`} {
		var back Table
		if json.Unmarshal([]byte(`{"title":"t","columns":[{"name":"p","unit":"ns"}],"rows":`+bad+`}`), &back) == nil {
			t.Errorf("decoded rows %s into a duration column", bad)
		}
	}
	NewTable("t", Dur("p")).AddRow(1.5)
}
