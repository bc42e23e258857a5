package main

import (
	"testing"
	"time"
)

func sp(start, end int64) span { return span{start: start, end: end, parent: -1} }

func TestSelfTime(t *testing.T) {
	parent := sp(100, 200)
	cases := []struct {
		name string
		kids []span
		want int64
	}{
		{"no children", nil, 100},
		{"disjoint", []span{sp(110, 120), sp(150, 170)}, 70},
		{"overlapping children count once", []span{sp(110, 150), sp(140, 160)}, 50},
		{"nested child", []span{sp(110, 190), sp(120, 130)}, 20},
		{"clipped to the parent", []span{sp(50, 120), sp(180, 260)}, 60},
		{"outside the parent", []span{sp(0, 100), sp(200, 300)}, 100},
		{"unsorted, touching", []span{sp(150, 200), sp(100, 150)}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.kids); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSpanCoverage(t *testing.T) {
	r := newSpanRec(time.Now())
	// Two requests: 100 ns with 80 ns of children, 50 ns with 10 ns.
	r.buf = append(r.buf,
		span{start: 0, end: 100, parent: -1, kind: kRequest},
		span{start: 10, end: 50, parent: 0, kind: kAlloc},
		span{start: 50, end: 90, parent: 0, kind: kStore},
		span{start: 200, end: 250, parent: -1, kind: kRequest},
		span{start: 240, end: 250, parent: 3, kind: kAlloc},
	)
	got := mergeSpans([]*spanRec{r}).coverage(kRequest)
	if want := 90.0 / 150.0; got != want {
		t.Errorf("coverage %v, want %v", got, want)
	}
}

func TestSpanRecorderBounded(t *testing.T) {
	r := newSpanRec(time.Now())
	loop := r.open(kLoop, 0, -1)
	for i := 0; i < spanCap+10; i++ {
		r.leaf(kAlloc, r.now(), loop, int64(i))
	}
	r.close(loop, kLoop, 0)
	if len(r.buf) != spanCap {
		t.Errorf("kept %d spans, want the cap %d", len(r.buf), spanCap)
	}
	if r.dropped != 11 {
		t.Errorf("dropped %d spans, want 11", r.dropped)
	}
	// The aggregates still count every call.
	if r.hist[kAlloc].n != spanCap+10 || r.hist[kLoop].n != 1 {
		t.Errorf("counted %d allocs and %d loops", r.hist[kAlloc].n, r.hist[kLoop].n)
	}
	if r.buf[0].end < r.buf[0].start {
		t.Error("loop span not closed")
	}
}
