// Command perfbench measures the collector end to end and layer by
// layer on three seeded workloads (churn, graph, serve), driving it
// only through the repro package's public API. See README.md.
//
//	perfbench --workload churn --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics (the end-to-end metrics untraced, the
// per-layer metrics with --trace 1). The exit code is 1 when a
// self-check fails, 2 on a usage or set-up error, and 3 when a serve
// run built a backlog and so has no steady latency to report.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

var specs = []spec{
	{name: "churn", setup: setupChurn, opName: "allocation"},
	{name: "graph", setup: setupGraph, opName: "allocation"},
	{name: "serve", setup: setupServe, opName: "request"},
}

// setupReps is how many times an untraced run sets its workload up;
// setup_s is the median and the last set-up world is measured.
const setupReps = 9

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// errNotSteady marks a serve run whose generator fell steadily behind.
var errNotSteady = errors.New("not steady")

type options struct {
	seed     uint64
	seconds  float64
	traced   bool
	size     int
	drivers  int
	commit   string
	spansDir string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "all", "churn, graph, serve or all")
	seed := fs.Uint64("seed", 1, "seed all workload input is generated from")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	commit := fs.String("commit", "unknown", "commit recorded with the result")
	spansDir := fs.String("spans-dir", "", "directory the traced run writes its spans to (none if empty)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1 and --seconds positive")
		return 2
	}
	var todo []spec
	for _, sp := range specs {
		if *wl == "all" || *wl == sp.name {
			todo = append(todo, sp)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *wl)
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	o := options{
		seed: *seed, seconds: *seconds, traced: *trace == 1, size: 1,
		drivers: min(2, runtime.NumCPU()), commit: *commit, spansDir: *spansDir,
	}
	fmt.Fprintf(stdout, "env gomaxprocs=%d numcpu=%d go=%s commit=%s seed=%d drivers=%d seconds=%g trace=%d\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), o.commit, o.seed, o.drivers, o.seconds, *trace)
	total := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, sp := range todo {
		res, err := runWorkload(sp, o, stdout)
		if errors.Is(err, errNotSteady) {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", sp.name, err)
			return 3
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", sp.name, err)
			return 2
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(todo) > 1 {
				k = sp.name + "." + k
			}
			total.Metrics[k] = v
		}
	}
	out, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(out))
	if !total.Correct {
		return 1
	}
	return 0
}

// outcome is a measured world's state after settling, with its
// self-checks.
type outcome struct {
	checks    checks
	liveBytes float64
	reached   float64
	m         counters
	skips     float64
	// tenants is set on a world with tenants (serve); forced sums their
	// forced collections.
	tenants bool
	forced  float64
}

// setup builds reps instances of the workload and returns the last
// with the set-up times. Earlier instances are quiesced and dropped
// before the next is built, so that it reuses their memory instead of
// timing the first touch of fresh pages.
func setup(sp spec, p params, log *cycleLog, reps int) (instance, []float64, error) {
	var inst instance
	var times []float64
	for i := 0; i < reps; i++ {
		if inst != nil {
			w := inst.world()
			w.FinishConcurrentCycle()
			w.FinishSweep()
			w.SetCollectionHook(nil)
			inst = nil
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if inst, err = sp.setup(p, log); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return inst, times, nil
}

// finish settles the measured world and runs every self-check.
func finish(inst instance) *outcome {
	w := inst.world()
	settle(w)
	o := &outcome{m: snapshot(w)}
	o.liveBytes = float64(o.m["live_bytes"])
	checkCommon(&o.checks, inst)
	o.reached = float64(inst.check(&o.checks))
	o.skips = float64(w.Heap.Stats().BlacklistSkips)
	if s, ok := inst.(*serve); ok {
		o.tenants = true
		for _, g := range s.groups {
			for _, in := range g.incs {
				o.forced += float64(in.t.Stats().ForcedCollections)
			}
		}
	}
	return o
}

// measured sets up and measures one phase, then settles and checks it.
func measured(sp spec, o options, reps int, d time.Duration, traced bool) (*phase, *outcome, []float64, error) {
	p := params{seed: o.seed, size: o.size, drivers: o.drivers}
	log := &cycleLog{}
	inst, times, err := setup(sp, p, log, reps)
	if err != nil {
		return nil, nil, nil, err
	}
	ph := measure(inst, log, o.drivers, d, traced)
	if ph.backlog {
		return nil, nil, nil, fmt.Errorf("%w: generator lateness grew from a median of %.3f ms in the first quarter of requests to %.3f ms in the last",
			errNotSteady, ph.lateFirst, ph.lateLast)
	}
	return ph, finish(inst), times, nil
}

// runWorkload runs one workload as the options ask and prints its
// metrics by name.
func runWorkload(sp spec, o options, stdout io.Writer) (*result, error) {
	d := time.Duration(o.seconds * float64(time.Second))
	res := &result{Metrics: map[string]metricValue{}}
	var notes []string
	var phases []*phase
	var outs []*outcome
	if !o.traced {
		ph, out, times, err := measured(sp, o, setupReps, d, false)
		if err != nil {
			return nil, err
		}
		phases, outs = []*phase{ph}, []*outcome{out}
		notes = endToEndMetrics(res, sp, ph, median(times))
	} else {
		// Half the time untraced, half traced, each on a fresh world of
		// the same seed: the difference is the tracing overhead.
		ph0, out0, _, err := measured(sp, o, 1, d/2, false)
		if err != nil {
			return nil, err
		}
		ph1, out1, _, err := measured(sp, o, 1, d/2, true)
		if err != nil {
			return nil, err
		}
		phases, outs = []*phase{ph0, ph1}, []*outcome{out0, out1}
		notes = perLayerMetrics(res, ph0, ph1, out1)
		if o.spansDir != "" {
			header := fmt.Sprintf("perfbench spans: workload=%s seed=%d commit=%s go=%s gomaxprocs=%d",
				sp.name, o.seed, o.commit, runtime.Version(), runtime.GOMAXPROCS(0))
			path, err := ph1.spans.write(o.spansDir, fmt.Sprintf("%s-seed%d.csv", sp.name, o.seed), header)
			if err != nil {
				return nil, err
			}
			notes = append(notes, "spans written to "+path)
		}
	}
	var failures []string
	for i, ph := range phases {
		res.Attempted += ph.attempted + outs[i].checks.n
		res.Failed += ph.failed + int64(len(outs[i].checks.failed))
		failures = append(failures, ph.errs...)
		failures = append(failures, outs[i].checks.failed...)
	}
	res.Correct = res.Failed == 0
	printMetrics(stdout, sp.name, res, notes, failures)
	return res, nil
}

func printMetrics(w io.Writer, name string, res *result, notes, failures []string) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	moves := map[string]string{}
	for _, d := range perLayer {
		moves[d.name] = "  -> " + d.moves
	}
	for _, k := range names {
		fmt.Fprintf(w, "%s %-45s %14.6g %-6s%s\n", name, k, res.Metrics[k].Value, res.Metrics[k].Unit, moves[k])
	}
	share := 0.0
	if res.Attempted > 0 {
		share = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(w, "%s %-45s %14.6g ratio (%d of %d operations and self-checks)\n", name, "failed_share", share, res.Failed, res.Attempted)
	for _, n := range notes {
		fmt.Fprintf(w, "%s note: %s\n", name, n)
	}
	for _, f := range failures {
		fmt.Fprintf(w, "%s FAILED: %s\n", name, f)
	}
}

// recorder accumulates one result's metrics and notes the percentiles
// that lack ten samples beyond their rank.
type recorder struct {
	res   *result
	defs  map[string]metricDef
	notes []string
}

func newRecorder(res *result, defs []metricDef) *recorder {
	r := &recorder{res: res, defs: map[string]metricDef{}}
	for _, d := range defs {
		r.defs[d.name] = d
	}
	return r
}

func (r *recorder) set(name string, v float64) {
	d, ok := r.defs[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	r.res.Metrics[name] = metricValue{Value: v, Unit: d.unit}
}

// pct sets a percentile metric, noting it when unsupported.
func (r *recorder) pct(name string, v float64, ok bool, n int) {
	r.set(name, v)
	if !ok && n > 0 {
		r.notes = append(r.notes, fmt.Sprintf("%s rests on %d samples, fewer than %d beyond its rank", name, n, minBeyond))
	}
}

// done checks every declared metric was set.
func (r *recorder) done() []string {
	var missing []string
	for name := range r.defs {
		if _, ok := r.res.Metrics[name]; !ok {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		panic("perfbench: metrics not set: " + strings.Join(missing, ", "))
	}
	return r.notes
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

const mib = 1 << 20

func endToEndMetrics(res *result, sp spec, ph *phase, setupS float64) []string {
	r := newRecorder(res, endToEnd)
	r.set("setup_s", setupS)
	r.set("allocs_per_s", ph.allocRate)
	r.set("req_per_s", ph.reqRate)
	end := int64(ph.wall)
	var splits []string
	split := func(name string, s *samples, p int) {
		v, ok, k := s.pctSplit(p, end)
		r.pct(name, v, ok, s.n())
		splits = append(splits, fmt.Sprintf("%s over %d", name, k))
	}
	split("req_p50_ms", &ph.reqLat, 50)
	split("req_p99_ms", &ph.reqLat, 99)
	split("pause_p50_ms", ph.pause, 50)
	split("pause_p95_ms", ph.pause, 95)
	r.set("heap_peak_mb", ph.heapBytes/mib)
	ops := ph.allocs
	if sp.opName == "request" {
		ops = ph.reqs
	}
	r.set("cpu_us_per_op", ratio(float64(ph.cpu.Microseconds()), ops))
	notes := r.done()
	notes = append(notes, fmt.Sprintf("%d pause samples from %d cycles, %d request samples; cpu per %s",
		ph.pause.n(), len(ph.cycles), ph.reqLat.n(), sp.opName),
		"percentiles are the median over equal sub-phases: "+strings.Join(splits, ", "))
	if ph.reqs > 0 {
		notes = append(notes, fmt.Sprintf("refused_share %.6g (%d of %.0f requests)", ph.refusedShare(), ph.refused, ph.reqs))
	}
	return notes
}

func (ph *phase) refusedShare() float64 { return ratio(float64(ph.refused), ph.reqs) }
