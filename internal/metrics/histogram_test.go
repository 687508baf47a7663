package metrics

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram has nonzero stats")
	}
	if h.Percentile(99) != 0 {
		t.Fatal("empty histogram percentile nonzero")
	}
}

func TestHistogramSingleValue(t *testing.T) {
	h := NewHistogram()
	h.Record(12345)
	for _, p := range []float64{0, 50, 95, 99, 100} {
		got := h.Percentile(p)
		if got != 12345 {
			t.Fatalf("p%v = %d, want 12345", p, got)
		}
	}
	if h.Mean() != 12345 {
		t.Fatalf("mean = %v", h.Mean())
	}
}

func TestHistogramExactSmallValues(t *testing.T) {
	// Values below subBucketCount are recorded exactly.
	h := NewHistogram()
	for i := int64(0); i < 64; i++ {
		h.Record(i)
	}
	if h.Min() != 0 || h.Max() != 63 {
		t.Fatalf("min/max = %d/%d", h.Min(), h.Max())
	}
	if got := h.Percentile(50); got < 31 || got > 33 {
		t.Fatalf("p50 = %d, want ≈32", got)
	}
}

func TestHistogramRelativeError(t *testing.T) {
	// Percentiles must be within ~3.2% (2 sub-buckets) of exact for a
	// broad range of magnitudes.
	values := make([]int64, 0, 10000)
	h := NewHistogram()
	x := int64(100)
	for i := 0; i < 10000; i++ {
		v := x + int64(i)*int64(i)*7 // spans 100 .. ~700M
		values = append(values, v)
		h.Record(v)
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	for _, p := range []float64{10, 50, 90, 99, 99.9} {
		rank := int(math.Ceil(p/100*float64(len(values)))) - 1
		exact := values[rank]
		got := h.Percentile(p)
		relErr := math.Abs(float64(got-exact)) / float64(exact)
		if relErr > 0.032 {
			t.Fatalf("p%v = %d, exact %d, rel err %.4f > 3.2%%", p, got, exact, relErr)
		}
	}
}

func TestHistogramPercentileMonotonic(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 5000; i++ {
		h.Record(int64(i * 977 % 1000003))
	}
	prev := int64(-1)
	for p := 0.0; p <= 100; p += 0.5 {
		v := h.Percentile(p)
		if v < prev {
			t.Fatalf("percentile not monotonic at p=%v: %d < %d", p, v, prev)
		}
		prev = v
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Record(-5)
	if h.Min() != 0 {
		t.Fatalf("negative value not clamped: min=%d", h.Min())
	}
}

func TestBucketRoundTripProperty(t *testing.T) {
	f := func(raw uint32) bool {
		v := int64(raw)
		idx := bucketIndex(v)
		rep := bucketValue(idx)
		// Representative must be within one sub-bucket width.
		if v < subBucketCount {
			return rep == v
		}
		relErr := math.Abs(float64(rep-v)) / float64(v)
		return relErr <= 1.0/subBucketCount
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestBucketIndexMonotonicProperty(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return bucketIndex(x) <= bucketIndex(y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestSummary(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.RecordDuration(time.Duration(i) * time.Microsecond)
	}
	s := h.Summarize()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.P99 < 98*time.Microsecond || s.P99 > 100*time.Microsecond {
		t.Fatalf("p99 = %v", s.P99)
	}
	if !strings.Contains(s.String(), "n=100") {
		t.Fatalf("summary string: %s", s.String())
	}
}
