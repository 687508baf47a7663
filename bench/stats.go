package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middles for an even
// count), or 0 for no samples.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quartiles returns the first quartile, median and third quartile of xs by
// linear interpolation between closest ranks.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
	}
	return at(0.25), at(0.5), at(0.75)
}

// quantile returns the p-quantile of samples taken on a clock that ticks
// in whole units (virtual nanoseconds). The sample at the nearest rank
// (the smallest with at least p of the samples at or below it) fixes the
// tick; within it the samples sharing that value are taken as spread evenly
// over the tick's width, as a grouped median does, so a narrow distribution
// is not quantized to the tick. It returns 0 for no samples.
func quantile(xs []int64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := p * float64(len(s))
	rank := int(math.Ceil(pos))
	if rank < 1 {
		rank = 1
	}
	v := s[rank-1]
	below := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	upto := sort.Search(len(s), func(i int) bool { return s[i] > v })
	return float64(v) - 0.5 + (pos-float64(below))/float64(upto-below)
}
