// Package metrics provides latency histograms, counters and table
// formatting for the benchmark harness.
//
// The Histogram is HDR-style: values are bucketed with bounded relative
// error (sub-buckets within power-of-two ranges), so recording is O(1),
// memory is small and percentiles up to p99.99 are accurate to ~1.5% —
// sufficient for reproducing the paper's average/p95/p99 tables.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

const (
	// subBucketBits gives 64 linear sub-buckets in the base range and 32
	// upper-half sub-buckets per subsequent power-of-two range (the lower
	// half of each range overlaps the previous one), bounding the
	// midpoint's relative error at 1/64 ≈ 1.6%.
	subBucketBits      = 6
	subBucketCount     = 1 << subBucketBits
	subBucketHalfCount = subBucketCount / 2
	maxShift           = 64 - subBucketBits // highest power-of-two range
	totalBuckets       = subBucketCount + maxShift*subBucketHalfCount
)

// Histogram records int64 values (typically latencies in nanoseconds) with
// bounded relative error. The zero value is ready to use.
type Histogram struct {
	counts [totalBuckets]int64
	total  int64
	sum    float64
	min    int64
	max    int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{min: math.MaxInt64}
}

func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < subBucketCount {
		return int(v)
	}
	// shift ≥ 1 normalizes v so v>>shift lands in [32, 64).
	shift := bits.Len64(uint64(v)) - subBucketBits
	sub := int(v >> uint(shift))
	return subBucketCount + (shift-1)*subBucketHalfCount + (sub - subBucketHalfCount)
}

// bucketValue returns a representative (midpoint) value for index i.
func bucketValue(i int) int64 {
	if i < subBucketCount {
		return int64(i)
	}
	j := i - subBucketCount
	shift := uint(j/subBucketHalfCount + 1)
	sub := int64(j%subBucketHalfCount + subBucketHalfCount)
	low := sub << shift
	width := int64(1) << shift
	return low + width/2
}

// Record adds one observation.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	if h.total == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.counts[bucketIndex(v)]++
	h.total++
	h.sum += float64(v)
}

// RecordDuration adds one latency observation.
func (h *Histogram) RecordDuration(d time.Duration) { h.Record(int64(d)) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.total }

// Mean returns the arithmetic mean of observations (0 if empty).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// MeanDuration returns the mean as a time.Duration.
func (h *Histogram) MeanDuration() time.Duration {
	return time.Duration(h.Mean())
}

// Min returns the smallest recorded value (0 if empty).
func (h *Histogram) Min() int64 {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded value (0 if empty).
func (h *Histogram) Max() int64 { return h.max }

// Percentile returns the value at percentile p in [0, 100]. Exact recorded
// minima/maxima are returned at the extremes; interior percentiles carry
// the histogram's ~1.6% relative error.
func (h *Histogram) Percentile(p float64) int64 {
	if h.total == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	rank := int64(math.Ceil(p / 100 * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			v := bucketValue(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// PercentileDuration returns Percentile(p) as a time.Duration.
func (h *Histogram) PercentileDuration(p float64) time.Duration {
	return time.Duration(h.Percentile(p))
}

// Summary bundles the statistics the paper's tables report.
type Summary struct {
	Count int64
	Mean  time.Duration
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// Summarize extracts a Summary from the histogram.
func (h *Histogram) Summarize() Summary {
	return Summary{
		Count: h.Count(),
		Mean:  h.MeanDuration(),
		P50:   h.PercentileDuration(50),
		P95:   h.PercentileDuration(95),
		P99:   h.PercentileDuration(99),
		Max:   time.Duration(h.Max()),
	}
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		s.Count, s.Mean.Round(time.Microsecond), s.P50.Round(time.Microsecond),
		s.P95.Round(time.Microsecond), s.P99.Round(time.Microsecond),
		s.Max.Round(time.Microsecond))
}
