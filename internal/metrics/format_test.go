package metrics_test

// The values measured here reach the paper's tables through
// internal/report, whose columns format them. These tests pin the text
// a latency, a byte count, a ratio and a small table of them render as.

import (
	"strings"
	"testing"
	"time"

	"hyperloop/internal/report"
)

func TestTableRendering(t *testing.T) {
	tbl := report.NewTable("Table 2: gCAS", report.Text("impl"), report.Dur("avg"), report.Dur("p99"))
	tbl.AddRow("naive", 539*time.Microsecond, 11886*time.Microsecond)
	tbl.AddRow("hyperloop", 10*time.Microsecond, 14*time.Microsecond)
	out := tbl.String()
	for _, want := range []string{"Table 2", "impl", "naive", "hyperloop", "11.9ms"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestFormatDuration(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{1500 * time.Nanosecond, "1.50µs"},
		{14 * time.Microsecond, "14.0µs"},
		{539 * time.Microsecond, "539.0µs"},
		{2500 * time.Microsecond, "2.50ms"},
		{118 * time.Millisecond, "118.0ms"},
		{2 * time.Second, "2.00s"},
	}
	for _, c := range cases {
		if got := report.FormatDuration(c.d); got != c.want {
			t.Errorf("FormatDuration(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestFormatBytes(t *testing.T) {
	if report.FormatBytes(128) != "128B" || report.FormatBytes(2048) != "2K" || report.FormatBytes(1<<21) != "2M" {
		t.Fatal("FormatBytes wrong")
	}
}

func TestRatio(t *testing.T) {
	if got := report.Over(100, 0).Format(1); got != "inf" {
		t.Fatalf("ratio over zero = %s, want inf", got)
	}
	if got := report.Over(800*time.Microsecond, 100*time.Microsecond).Format(1); got != "8.0x" {
		t.Fatalf("ratio = %s, want 8.0x", got)
	}
}
