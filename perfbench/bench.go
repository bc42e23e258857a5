package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro"
)

// instance is one set-up world of a workload, ready to measure.
type instance interface {
	world() *repro.World
	// drive runs the measured phase until d has passed (closed loops)
	// or until every request due before d was served (open loop).
	drive(d time.Duration, run *phaseRun)
	// mutators lists every handle the instance created, for their
	// counters.
	mutators() []*repro.Mutator
	// check runs the workload's own self-checks on the settled world;
	// it returns the bytes the benchmark's own tape keeps reachable.
	check(c *checks) (reached uint64)
	// allocated is how many allocations succeeded on this world, set-up
	// included.
	allocated() int64
}

// spec describes one workload.
type spec struct {
	name  string
	setup func(p params, log *cycleLog) (instance, error)
	// opName is what cpu_us_per_op divides by.
	opName string
}

// params are a workload's inputs: the seed every input is generated
// from, a size scale (1 for the benchmark, smaller for smoke tests)
// and the number of driver goroutines.
type params struct {
	seed    uint64
	size    int
	drivers int
}

// parallel runs fn(0..n-1) on n goroutines and waits for all of them.
func parallel(n int, fn func(d int)) {
	var wg sync.WaitGroup
	for d := 0; d < n; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			fn(d)
		}(d)
	}
	wg.Wait()
}

// progress is one driver's running count, read by the window sampler.
type progress struct {
	allocs atomic.Int64
	reqs   atomic.Int64
	_      [48]byte
}

// phaseRun is what the drivers fill in during one measured phase.
type phaseRun struct {
	base    time.Time
	drivers int
	prog    []progress
	recs    []*spanRec // nil slice entries when untraced
	// Per-driver results, merged after the phase.
	reqLat    []samples // request latency, ms, at completion time
	late      []samples // open-loop generator lateness, ms
	attempted []int64
	failed    []int64
	refused   []int64
	errs      []string
	mu        sync.Mutex
}

func newPhaseRun(drivers int, traced bool) *phaseRun {
	r := &phaseRun{
		base:      time.Now(),
		drivers:   drivers,
		prog:      make([]progress, drivers),
		recs:      make([]*spanRec, drivers),
		reqLat:    make([]samples, drivers),
		late:      make([]samples, drivers),
		attempted: make([]int64, drivers),
		failed:    make([]int64, drivers),
		refused:   make([]int64, drivers),
	}
	if traced {
		for i := range r.recs {
			r.recs[i] = newSpanRec(r.base)
		}
	}
	return r
}

// now is nanoseconds since the phase base.
func (r *phaseRun) now() int64 { return int64(time.Since(r.base)) }

// fail records an unexpected error on driver d (the first few are kept
// for the report).
func (r *phaseRun) fail(d int, err error) {
	r.failed[d]++
	r.mu.Lock()
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
	r.mu.Unlock()
}

// firstErr returns the first recorded driver error, if any.
func (r *phaseRun) firstErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.errs) > 0 {
		return fmt.Errorf("%s", r.errs[0])
	}
	return nil
}

// phase is one measured phase's outcome.
type phase struct {
	wall      time.Duration
	cpu       time.Duration
	allocs    float64 // successful allocations in the phase
	reqs      float64 // completed requests in the phase
	allocRate float64 // median over windows, 1/s
	reqRate   float64 // median over windows, 1/s
	reqLat    samples
	late      samples
	attempted int64
	failed    int64
	refused   int64
	errs      []string
	cycles    []repro.CollectionStats
	pause     *samples
	m0, m1    counters
	mut       repro.MutatorStats // summed over the handles at the end of the phase
	spans     *spanSet
	heapBytes float64 // committed heap at the end of the phase
	handles   float64
	// backlog is set when an open-loop driver fell steadily behind its
	// schedule; lateFirst and lateLast are that driver's median
	// lateness over its first and last quarter of requests, ms.
	backlog             bool
	lateFirst, lateLast float64
}

// window is the sampler period for throughput medians.
const window = time.Second

// measure runs one measured phase on inst and collects everything the
// end-to-end and per-layer metrics need.
func measure(inst instance, log *cycleLog, drivers int, d time.Duration, traced bool) *phase {
	w := inst.world()
	runtime.GC()
	run := newPhaseRun(drivers, traced)
	p := &phase{}
	p.m0 = snapshot(w)
	log.start(run.base)
	cpu0 := cpuTime()
	stop := make(chan struct{})
	var allocW, reqW []float64
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		tk := time.NewTicker(window)
		defer tk.Stop()
		lastT := time.Now()
		var lastA, lastR int64
		for {
			select {
			case <-stop:
				return
			case t := <-tk.C:
				var a, r int64
				for i := range run.prog {
					a += run.prog[i].allocs.Load()
					r += run.prog[i].reqs.Load()
				}
				dt := t.Sub(lastT).Seconds()
				allocW = append(allocW, float64(a-lastA)/dt)
				reqW = append(reqW, float64(r-lastR)/dt)
				lastT, lastA, lastR = t, a, r
			}
		}
	}()
	t0 := time.Now()
	inst.drive(d, run)
	p.wall = time.Since(t0)
	close(stop)
	sampler.Wait()
	p.cpu = cpuTime() - cpu0
	p.cycles, p.pause = log.stop()
	p.m1 = snapshot(w)
	p.mut = sumMutatorStats(inst.mutators())
	p.heapBytes = float64(p.m1["heap_bytes"])
	p.handles = float64(p.m1["mutators"])
	for i := range run.late {
		if b, f, l := backlog(run.late[i].xs); b {
			p.backlog, p.lateFirst, p.lateLast = true, f, l
		}
	}
	var a, r int64
	for i := range run.prog {
		a += run.prog[i].allocs.Load()
		r += run.prog[i].reqs.Load()
		p.reqLat.merge(&run.reqLat[i])
		p.late.merge(&run.late[i])
		p.attempted += run.attempted[i]
		p.failed += run.failed[i]
		p.refused += run.refused[i]
	}
	p.errs = run.errs
	p.allocs, p.reqs = float64(a), float64(r)
	// A partial trailing window is dropped by the ticker; a run too
	// short for any window falls back to the whole-phase rate.
	p.allocRate, p.reqRate = median(allocW), median(reqW)
	if len(allocW) < 2 {
		p.allocRate = p.allocs / p.wall.Seconds()
		p.reqRate = p.reqs / p.wall.Seconds()
	}
	if traced {
		p.spans = mergeSpans(run.recs)
	}
	return p
}

// checks collects self-check outcomes.
type checks struct {
	n      int64
	failed []string
}

func (c *checks) expect(ok bool, format string, args ...any) {
	c.n++
	if !ok {
		c.failed = append(c.failed, fmt.Sprintf(format, args...))
	}
}

// checkCommon runs the self-checks every workload shares; the world
// must be settled.
func checkCommon(c *checks, inst instance) {
	w := inst.world()
	m := snapshot(w)
	c.expect(m["objects_allocated"] == inst.allocated(),
		"central ObjectsAllocated %d, drivers counted %d successes", m["objects_allocated"], inst.allocated())
	err := w.VerifyIntegrity()
	c.expect(err == nil, "VerifyIntegrity after teardown: %v", err)
}
