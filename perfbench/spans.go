package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Spans are recorded by the benchmark around each public call it makes
// into the collector; the program itself is not instrumented. Every
// driver goroutine owns one spanRec, so recording takes no lock. Each
// call's duration goes into a per-kind histogram and running sum; the
// first spanCap spans of each goroutine are also kept whole (name,
// start, end, parent, request id) and written out when the run ends.

type spanKind uint8

const (
	kLoop    spanKind = iota // one driver's whole measured loop
	kRequest                 // one request (serve) or unit of work (churn, graph)
	kAlloc                   // Allocate/AllocateRooted that succeeded
	kDeny                    // allocation refused with ErrBudgetExceeded
	kEvict                   // allocation that evicted its tenant
	kStore                   // Mutator.Store
	kLoad                    // Mutator.Load
	kArrive                  // NewTenant + NewMutator of an arriving tenant
	nKinds
)

var kindNames = [nKinds]string{"loop", "request", "alloc", "deny", "evict", "store", "load", "arrive"}

// span is one recorded call. Times are nanoseconds since the run's
// base; parent indexes the same goroutine's span buffer (-1: none).
type span struct {
	start, end int64
	req        int64
	parent     int32
	kind       spanKind
}

// spanCap bounds each goroutine's kept spans (about 2 MiB).
const spanCap = 1 << 16

type spanRec struct {
	base    time.Time
	buf     []span
	dropped int64
	hist    [nKinds]hist
	sum     [nKinds]int64
}

func newSpanRec(base time.Time) *spanRec {
	return &spanRec{base: base, buf: make([]span, 0, spanCap)}
}

func (r *spanRec) now() int64 { return int64(time.Since(r.base)) }

// open starts a parent span and returns its buffer index (-1 when the
// buffer is full); close finishes it.
func (r *spanRec) open(k spanKind, req int64, parent int32) int32 {
	if len(r.buf) == cap(r.buf) {
		return -1
	}
	r.buf = append(r.buf, span{start: r.now(), end: -1, req: req, parent: parent, kind: k})
	return int32(len(r.buf) - 1)
}

// close finishes span i (-1: not kept, timed from start instead).
func (r *spanRec) close(i int32, k spanKind, start int64) {
	end := r.now()
	if i >= 0 {
		r.buf[i].end = end
		start = r.buf[i].start
	}
	r.account(k, end-start)
}

// leaf records a call of kind k that began at start (from now) and
// ends now.
func (r *spanRec) leaf(k spanKind, start int64, parent int32, req int64) {
	end := r.now()
	r.account(k, end-start)
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, span{start: start, end: end, req: req, parent: parent, kind: k})
	} else {
		r.dropped++
	}
}

func (r *spanRec) account(k spanKind, d int64) {
	r.hist[k].add(d)
	r.sum[k] += d
}

// spanSet merges the goroutines' aggregates.
type spanSet struct {
	recs []*spanRec
	hist [nKinds]hist
	sum  [nKinds]int64
}

func mergeSpans(recs []*spanRec) *spanSet {
	s := &spanSet{recs: recs}
	for _, r := range recs {
		for k := range r.hist {
			s.hist[k].merge(&r.hist[k])
			s.sum[k] += r.sum[k]
		}
	}
	return s
}

// selfTime returns the parent's duration minus the part of [start, end)
// covered by the union of its children's intervals (clipped to the
// parent): the time the parent's own layer spent outside every child.
func selfTime(parent span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.start, parent.start), min(c.end, parent.end)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, curLo, curHi int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] <= curHi:
			curHi = max(curHi, x[1])
		default:
			covered += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if open {
		covered += curHi - curLo
	}
	return parent.end - parent.start - covered
}

// coverage returns, over every kept span of the given parent kind, the
// share of the parents' total duration their children cover.
func (s *spanSet) coverage(parentKind spanKind) float64 {
	var total, self int64
	for _, r := range s.recs {
		kids := make(map[int32][]span)
		for _, sp := range r.buf {
			if sp.parent >= 0 {
				kids[sp.parent] = append(kids[sp.parent], sp)
			}
		}
		for i, sp := range r.buf {
			if sp.kind != parentKind || sp.end < 0 {
				continue
			}
			total += sp.end - sp.start
			self += selfTime(sp, kids[int32(i)])
		}
	}
	if total == 0 {
		return 0
	}
	return float64(total-self) / float64(total)
}

// write stores every kept span as CSV under dir and returns the path.
func (s *spanSet) write(dir, name string, header string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintf(bw, "# %s\n", header)
	fmt.Fprintln(bw, "goroutine,index,name,start_ns,end_ns,parent,request")
	for g, r := range s.recs {
		if r.dropped > 0 {
			fmt.Fprintf(bw, "# goroutine %d: %d later spans not kept (buffer full)\n", g, r.dropped)
		}
		for i, sp := range r.buf {
			fmt.Fprintf(bw, "%d,%d,%s,%d,%d,%d,%d\n", g, i, kindNames[sp.kind], sp.start, sp.end, sp.parent, sp.req)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
