package main

import (
	"math/bits"
	"sort"
)

// Percentiles are nearest-rank: the p-th percentile of n samples is the
// sample of rank ceil(p*n/100) in ascending order. A percentile is
// supported only when at least ten samples lie beyond that rank;
// otherwise it is just a restatement of the few largest samples (a p99
// over nine samples is the max).

// minBeyond is how many samples a supported percentile needs above its
// rank.
const minBeyond = 10

// rank returns the 1-based nearest-rank index of the p-th percentile of
// n samples (0 when n is 0). p is in whole percent, so the arithmetic
// is exact.
func rank(n, p int) int {
	if n == 0 {
		return 0
	}
	r := (p*n + 99) / 100
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// supported reports whether n samples leave at least minBeyond samples
// above the p-th percentile's rank.
func supported(n, p int) bool { return n > 0 && n-rank(n, p) >= minBeyond }

// need returns the fewest samples that support the p-th percentile.
func need(p int) int {
	n := 1
	for !supported(n, p) {
		n++
	}
	return n
}

// samples is a set of measurements in the order they were taken; a
// sorted copy is made on the first percentile query. Samples added with
// addAt also carry the time they were taken (ns since the phase start),
// which pctSplit uses.
type samples struct {
	xs     []float64
	at     []int64
	sorted []float64
}

func (s *samples) add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = nil
}

func (s *samples) addAt(x float64, t int64) {
	s.add(x)
	s.at = append(s.at, t)
}

func (s *samples) merge(o *samples) {
	s.xs = append(s.xs, o.xs...)
	s.at = append(s.at, o.at...)
	s.sorted = nil
}

func (s *samples) n() int { return len(s.xs) }

// pct returns the nearest-rank p-th percentile (0 for no samples) and
// whether it is supported.
func (s *samples) pct(p int) (float64, bool) {
	if len(s.xs) == 0 {
		return 0, false
	}
	if s.sorted == nil {
		s.sorted = append([]float64(nil), s.xs...)
		sort.Float64s(s.sorted)
	}
	return s.sorted[rank(len(s.xs), p)-1], supported(len(s.xs), p)
}

// maxSplit bounds how many sub-phases pctSplit splits a phase into.
const maxSplit = 5

// pctSplit is the p-th percentile made robust to a short burst of
// outside interference: the phase [0, end) is cut into K equal
// sub-phases by sample time, the percentile is taken in each, and the
// median of the K values is returned with K. K is the largest value up
// to maxSplit for which every sub-phase holds enough samples to support
// the percentile; with too few samples for two supported sub-phases it
// is the pooled percentile (K = 1).
func (s *samples) pctSplit(p int, end int64) (v float64, ok bool, k int) {
	n := len(s.xs)
	if len(s.at) == n && end > 0 {
		for k = min(maxSplit, n/need(p)); k >= 2; k-- {
			parts := make([]samples, k)
			for i, t := range s.at {
				j := int(t * int64(k) / end)
				j = max(0, min(k-1, j))
				parts[j].add(s.xs[i])
			}
			vals := make([]float64, 0, k)
			for j := range parts {
				pv, pok := parts[j].pct(p)
				if !pok {
					break
				}
				vals = append(vals, pv)
			}
			if len(vals) == k {
				return median(vals), true, k
			}
		}
	}
	v, ok = s.pct(p)
	return v, ok, 1
}

func (s *samples) sum() float64 {
	t := 0.0
	for _, x := range s.xs {
		t += x
	}
	return t
}

func (s *samples) mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	return s.sum() / float64(len(s.xs))
}

// median returns the middle value of xs (mean of the two middle values
// for an even count), leaving xs unchanged.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	m := len(c) / 2
	if len(c)%2 == 1 {
		return c[m]
	}
	return (c[m-1] + c[m]) / 2
}

// hist is a log-linear histogram of non-negative integer durations in
// nanoseconds, for call counts too large to keep every sample: values
// below 2^(subBits+1) are exact, larger ones fall in one of 2^subBits
// buckets per power of two (relative width at most 1/32).
type hist struct {
	counts [histBuckets]int64
	n      int64
}

const (
	subBits     = 5
	histBuckets = (64 - subBits) << subBits
)

func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < 1<<(subBits+1) {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - (subBits + 1)
	return (e+1)<<subBits + int(v>>e) - 1<<subBits
}

// bucketLow returns the smallest value that falls in bucket b;
// bucketMid the middle of its range, which pct reports.
func bucketLow(b int) int64 {
	if b < 1<<(subBits+1) {
		return int64(b)
	}
	e := b>>subBits - 1
	m := int64(b&(1<<subBits-1) + 1<<subBits)
	return m << e
}

func bucketMid(b int) float64 {
	if b < 1<<(subBits+1) {
		return float64(b)
	}
	e := b>>subBits - 1
	return float64(bucketLow(b)) + float64(int64(1)<<e-1)/2
}

func (h *hist) add(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// pct is the nearest-rank percentile over the bucketed samples: the
// midpoint of the bucket holding the sample of rank ceil(p*n/100).
func (h *hist) pct(p int) (float64, bool) {
	if h.n == 0 {
		return 0, false
	}
	r := int64(rank(int(h.n), p))
	var seen int64
	for b, c := range h.counts {
		seen += c
		if seen >= r {
			return bucketMid(b), supported(int(h.n), p)
		}
	}
	return 0, false
}
