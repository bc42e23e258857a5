package main

import (
	"math"
	"testing"
)

func TestNearestRank(t *testing.T) {
	cases := []struct{ n, p, want int }{
		{0, 50, 0},
		{1, 50, 1}, {1, 99, 1},
		{2, 50, 1}, {3, 50, 2}, {4, 50, 2},
		{10, 90, 9}, {10, 91, 10},
		{100, 99, 99}, {101, 99, 100},
		{200, 95, 190}, {1000, 99, 990},
	}
	for _, c := range cases {
		if got := rank(c.n, c.p); got != c.want {
			t.Errorf("rank(%d, p%d) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := &samples{}
	for _, x := range []float64{15, 20, 35, 40, 50} {
		s.add(x)
	}
	// The textbook nearest-rank example: p30 is 20, p40 is 20, p50 35,
	// p100 50; every value is an actual sample, never interpolated.
	for p, want := range map[int]float64{5: 15, 30: 20, 40: 20, 50: 35, 100: 50} {
		if got, _ := s.pct(p); got != want {
			t.Errorf("p%d = %v, want %v", p, got, want)
		}
	}
	empty := &samples{}
	if v, ok := empty.pct(50); v != 0 || ok {
		t.Errorf("empty p50 = %v, %v; want 0, false", v, ok)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n, p int
		ok   bool
	}{
		{19, 50, false}, {20, 50, true},
		{199, 95, false}, {200, 95, true},
		{999, 99, false}, {1000, 99, true},
		{9, 99, false}, {0, 50, false},
	}
	for _, c := range cases {
		if got := supported(c.n, c.p); got != c.ok {
			t.Errorf("supported(%d, p%d) = %v, want %v", c.n, c.p, got, c.ok)
		}
	}
	s := &samples{}
	for i := 1; i <= 1000; i++ {
		s.add(float64(i))
	}
	if v, ok := s.pct(99); v != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	in := []float64{4, 1, 3, 2}
	if got := median(in); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if in[0] != 4 {
		t.Error("median reordered its input")
	}
}

func TestHistBuckets(t *testing.T) {
	// Every value lands in a bucket whose range holds it, buckets are
	// contiguous, and a bucket is at most 1/32 of its value wide.
	prevLow := int64(-1)
	for b := 0; b < 600; b++ {
		low := bucketLow(b)
		if low <= prevLow {
			t.Fatalf("bucket %d low %d not above bucket %d low %d", b, low, b-1, prevLow)
		}
		if bucketOf(low) != b {
			t.Fatalf("bucketOf(%d) = %d, want %d", low, bucketOf(low), b)
		}
		if b > 0 && bucketOf(low-1) != b-1 {
			t.Fatalf("bucketOf(%d) = %d, want %d", low-1, bucketOf(low-1), b-1)
		}
		prevLow = low
	}
	for _, v := range []int64{0, 1, 63, 64, 65, 127, 128, 1000, 123456, 1 << 40} {
		b := bucketOf(v)
		width := bucketLow(b+1) - bucketLow(b)
		if v < bucketLow(b) || v >= bucketLow(b+1) {
			t.Errorf("%d outside its bucket [%d, %d)", v, bucketLow(b), bucketLow(b+1))
		}
		if v >= 64 && float64(width) > float64(v)/32 {
			t.Errorf("bucket of %d is %d wide", v, width)
		}
	}
}

func TestHistPercentile(t *testing.T) {
	h := &hist{}
	for i := int64(1); i <= 1000; i++ {
		h.add(i * 100)
	}
	v, ok := h.pct(99)
	// Nearest rank 990 holds 99000; the bucket midpoint is within
	// 1/64 of it.
	if !ok || math.Abs(v-99000)/99000 > 1.0/64 {
		t.Errorf("hist p99 = %v, %v; want about 99000, true", v, ok)
	}
	if v, _ := h.pct(50); math.Abs(v-50000)/50000 > 1.0/64 {
		t.Errorf("hist p50 = %v, want about 50000", v)
	}
	small := &hist{}
	for i := int64(0); i < 30; i++ {
		small.add(i)
	}
	// Below 64 the buckets are exact.
	if v, ok := small.pct(50); v != 14 || !ok {
		t.Errorf("exact p50 = %v, %v; want 14, true", v, ok)
	}
}

func TestPctSplit(t *testing.T) {
	// 1000 samples over a 10-unit phase; the last fifth is a burst of
	// large values. 200 samples per sub-phase support a p50, so the
	// phase splits five ways and the burst moves only its own
	// sub-phase's median; the pooled median moves with it.
	s := &samples{}
	for i := 0; i < 1000; i++ {
		x := float64(i % 10)
		if i >= 800 {
			x += 1000
		}
		s.addAt(x, int64(i)/100)
	}
	v, ok, k := s.pctSplit(50, 10)
	if k != 5 || !ok || v != 4 {
		t.Errorf("pctSplit p50 = %v, %v over %d; want 4, true over 5", v, ok, k)
	}
	if pooled, _ := s.pct(50); pooled != 6 {
		t.Errorf("pooled p50 = %v, want 6", pooled)
	}
	// Too few samples to support p99 in two sub-phases: pooled.
	if _, _, k := s.pctSplit(99, 10); k != 1 {
		t.Errorf("p99 of 1000 split %d ways, want pooled", k)
	}
	// The percentile queries leave the samples in order.
	if s.xs[999] != 1009 || s.at[999] != 9 {
		t.Error("percentile queries reordered the samples")
	}
	// Samples without times are pooled.
	plain := &samples{}
	for i := 0; i < 500; i++ {
		plain.add(float64(i))
	}
	if _, _, k := plain.pctSplit(50, 10); k != 1 {
		t.Errorf("untimed samples split %d ways", k)
	}
}
