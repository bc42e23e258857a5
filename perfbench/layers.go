package main

import (
	"fmt"

	"repro"
)

// Layer-sum bounds: the collector-call spans must cover at least this
// share of the time they are meant to explain. The rest is the
// benchmark's own work between calls (tape reads, the tree copy,
// timing).
const (
	minLoopCoverage    = 0.5 // churn and graph: allocation, Store and Load spans over the driver loops
	minRequestCoverage = 0.8 // serve: each request's child spans over its service time
)

// cycleSamples collects one per-cycle quantity over the cycles that
// pass keep, in milliseconds when ns is true.
func cycleSamples(cycles []repro.CollectionStats, keep func(repro.CollectionStats) bool, f func(repro.CollectionStats) float64) *samples {
	s := &samples{}
	for _, c := range cycles {
		if keep == nil || keep(c) {
			s.add(f(c))
		}
	}
	return s
}

func nsToMs(ns int64) float64 { return float64(ns) / 1e6 }

func concurrentCycle(c repro.CollectionStats) bool { return c.Concurrent }

// perLayerMetrics fills the per-layer metrics from the traced phase
// ph1 (and its settled outcome), with the untraced phase ph0 as the
// reference for the tracing overhead. It adds the layer-sum checks to
// the outcome's checks.
func perLayerMetrics(res *result, ph0, ph1 *phase, out *outcome) []string {
	r := newRecorder(res, perLayer)
	sp1 := ph1.spans
	cy := ph1.cycles
	ncy := float64(len(cy))
	hpct := func(name string, k spanKind, p int, scale float64) {
		v, ok := sp1.hist[k].pct(p)
		r.pct(name, v/scale, ok, int(sp1.hist[k].n))
	}
	spct := func(name string, s *samples, p int) {
		v, ok := s.pct(p)
		r.pct(name, v, ok, s.n())
	}

	// core.mutator: the allocation fast and slow paths.
	hpct("core.mutator.alloc_ns_p50", kAlloc, 50, 1)
	hpct("core.mutator.alloc_ns_p99", kAlloc, 99, 1)
	// Over the handles' whole life: slots carved in set-up may be
	// flushed during the phase.
	ms := ph1.mut
	fast, slow := float64(ms.FastAllocs), float64(ms.SlowAllocs)
	refills, carved, flushed := float64(ms.Refills), float64(ms.RunSlots), float64(ms.FlushedSlots)
	r.set("core.mutator.fast_share", ratio(fast, fast+slow))
	r.set("core.mutator.refill_slots_per_refill", ratio(carved, refills))
	r.set("core.mutator.flushed_share", ratio(flushed, carved))
	allocBusy := sp1.sum[kAlloc] + sp1.sum[kDeny] + sp1.sum[kEvict]
	r.set("core.mutator.alloc_busy_s", float64(allocBusy)/1e9)

	// core: the world lock every Store and Load takes.
	hpct("core.store_ns_p50", kStore, 50, 1)
	hpct("core.store_ns_p99", kStore, 99, 1)
	hpct("core.load_ns_p50", kLoad, 50, 1)
	hpct("core.load_ns_p99", kLoad, 99, 1)

	// core.safepoint.
	stops := cycleSamples(cy, nil, func(c repro.CollectionStats) float64 { return nsToMs(c.PauseStopNs) })
	spct("core.safepoint.stop_ms_p50", stops, 50)
	spct("core.safepoint.stop_ms_p95", stops, 95)
	r.set("core.safepoint.stops", delta(ph1.m0, ph1.m1, "stw_stops"))
	r.set("core.safepoint.handles_end", ph1.handles)

	// core.cycle.
	r.set("core.cycle.count", ncy)
	r.set("core.cycle.alloc_mb_per_cycle", ratio(delta(ph1.m0, ph1.m1, "bytes_allocated")/mib, ncy))
	spct("core.cycle.duration_ms_p50", cycleSamples(cy, nil, func(c repro.CollectionStats) float64 {
		return nsToMs(c.Duration.Nanoseconds())
	}), 50)

	// core.concurrent, core.pacer, core.barrier.
	spct("core.concurrent.snapshot_ms_p95", cycleSamples(cy, concurrentCycle, func(c repro.CollectionStats) float64 {
		return nsToMs(c.PauseSnapshotNs)
	}), 95)
	final := cycleSamples(cy, concurrentCycle, func(c repro.CollectionStats) float64 { return nsToMs(c.PauseFinalNs) })
	spct("core.concurrent.final_ms_p50", final, 50)
	spct("core.concurrent.final_ms_p95", final, 95)
	r.set("core.concurrent.final_dirty_blocks_mean", cycleSamples(cy, concurrentCycle, func(c repro.CollectionStats) float64 {
		return float64(c.FinalDirtyBlocks)
	}).mean())
	r.set("core.concurrent.rescan_passes_mean", cycleSamples(cy, concurrentCycle, func(c repro.CollectionStats) float64 {
		return float64(c.RescanPasses)
	}).mean())
	concMarked := cycleSamples(cy, concurrentCycle, func(c repro.CollectionStats) float64 { return float64(c.MarkedConcurrent) }).sum()
	concAll := cycleSamples(cy, concurrentCycle, func(c repro.CollectionStats) float64 { return float64(c.Mark.ObjectsMarked) }).sum()
	r.set("core.concurrent.marked_concurrent_share", ratio(concMarked, concAll))
	spct("core.concurrent.phase_ms_p50", cycleSamples(cy, concurrentCycle, func(c repro.CollectionStats) float64 {
		return nsToMs(c.ConcPhaseNs)
	}), 50)
	r.set("core.concurrent.workers_mean", cycleSamples(cy, concurrentCycle, func(c repro.CollectionStats) float64 {
		return float64(c.ConcWorkers)
	}).mean())
	r.set("core.pacer.assist_ms", delta(ph1.m0, ph1.m1, "pacer_assist_ns")/1e6)
	r.set("core.barrier.dirty_blocks_per_cycle", ratio(delta(ph1.m0, ph1.m1, "barrier_dirty_blocks"), ncy))

	// core.tenant: only serve has tenants; its allocations are the
	// tenant charge path.
	if out.tenants {
		hpct("core.tenant.admit_ns_p50", kAlloc, 50, 1)
		hpct("core.tenant.admit_ns_p99", kAlloc, 99, 1)
	} else {
		r.set("core.tenant.admit_ns_p50", 0)
		r.set("core.tenant.admit_ns_p99", 0)
	}
	hpct("core.tenant.deny_ms_p50", kDeny, 50, 1e6)
	hpct("core.tenant.deny_ms_p99", kDeny, 99, 1e6)
	hpct("core.tenant.evict_ms_p50", kEvict, 50, 1e6)
	hpct("core.tenant.arrive_ms_p50", kArrive, 50, 1e6)
	r.set("core.tenant.forced_collections", out.forced)
	r.set("core.tenant.denials", delta(ph1.m0, ph1.m1, "budget_denials"))
	r.set("core.tenant.evictions", delta(ph1.m0, ph1.m1, "tenant_evictions"))
	r.set("core.tenant.refused_share", ph1.refusedShare())

	// mark.
	markP := cycleSamples(cy, nil, func(c repro.CollectionStats) float64 { return nsToMs(c.PauseMarkNs) })
	spct("mark.pause_ms_p50", markP, 50)
	spct("mark.pause_ms_p95", markP, 95)
	marked := cycleSamples(cy, nil, func(c repro.CollectionStats) float64 { return float64(c.Mark.ObjectsMarked) })
	r.set("mark.objects_per_cycle", marked.mean())
	markMs := cycleSamples(cy, nil, func(c repro.CollectionStats) float64 { return nsToMs(c.PauseMarkNs + c.ConcPhaseNs) }).sum()
	r.set("mark.objs_per_ms", ratio(marked.sum(), markMs))
	fields := cycleSamples(cy, nil, func(c repro.CollectionStats) float64 { return float64(c.Mark.FieldsScanned) }).sum()
	r.set("mark.fields_per_object", ratio(fields, marked.sum()))
	r.set("mark.steals", delta(ph1.m0, ph1.m1, "mark_steals")+delta(ph1.m0, ph1.m1, "conc_mark_steals"))

	// blacklist.
	r.set("blacklist.pages_end", float64(out.m["blacklist_pages"]))
	r.set("blacklist.false_refs_per_cycle", cycleSamples(cy, nil, func(c repro.CollectionStats) float64 {
		return float64(c.Mark.FalseNearHeap)
	}).mean())
	r.set("blacklist.block_skips", out.skips)
	r.set("blacklist.false_retained_kb", (out.liveBytes-out.reached)/1024)

	// alloc.
	sweep := cycleSamples(cy, nil, func(c repro.CollectionStats) float64 { return nsToMs(c.PauseSweepNs) })
	spct("alloc.sweep_ms_p50", sweep, 50)
	spct("alloc.sweep_ms_p95", sweep, 95)
	r.set("alloc.lazy_swept_blocks", delta(ph1.m0, ph1.m1, "lazy_swept_blocks"))
	r.set("alloc.conc_sweep_blocks", delta(ph1.m0, ph1.m1, "conc_sweep_blocks"))
	r.set("alloc.expansions", float64(out.m["heap_expansions"]))
	r.set("alloc.live_mb_end", out.liveBytes/mib)

	// bench: the benchmark's own health.
	spct("bench.late_ms_p99", &ph1.late, 99)
	var overhead float64
	var coverage, minCov float64
	if out.tenants {
		// The open loop's throughput is fixed by its schedule, so the
		// overhead shows as CPU per request instead.
		c0, c1 := ratio(ph0.cpu.Seconds(), ph0.reqs), ratio(ph1.cpu.Seconds(), ph1.reqs)
		overhead = 100 * ratio(c1-c0, c0)
		coverage, minCov = sp1.coverage(kRequest), minRequestCoverage
	} else {
		overhead = 100 * ratio(ph0.allocRate-ph1.allocRate, ph0.allocRate)
		calls := sp1.sum[kAlloc] + sp1.sum[kDeny] + sp1.sum[kEvict] + sp1.sum[kStore] + sp1.sum[kLoad]
		coverage, minCov = ratio(float64(calls), float64(sp1.sum[kLoop])), minLoopCoverage
	}
	r.set("bench.trace_overhead_pct", overhead)
	r.set("bench.span_coverage", coverage)
	r.set("bench.pause_samples", float64(ph1.pause.n()))
	r.set("bench.req_samples", float64(ph1.reqLat.n()))
	out.checks.expect(coverage >= minCov, "span coverage %.3f below its bound %.2f", coverage, minCov)
	pauseMs, wallMs := ph1.pause.sum(), float64(ph1.wall.Microseconds())/1e3
	out.checks.expect(pauseMs <= wallMs, "total pause %.1f ms exceeds the phase's wall time %.1f ms", pauseMs, wallMs)

	notes := r.done()
	return append(notes, fmt.Sprintf("span coverage %.4f (bound %.2f); pauses %.1f ms of %.1f ms wall; %d kept spans",
		coverage, minCov, pauseMs, wallMs, keptSpans(sp1)))
}

func keptSpans(s *spanSet) int {
	n := 0
	for _, r := range s.recs {
		n += len(r.buf)
	}
	return n
}
