package main

// The benchmark's metrics. BENCHMARK.json lists the same names, units
// and directions (TestBenchmarkJSONMatches keeps the two in step);
// moves records which end-to-end metric a per-layer metric should move,
// on which workload.

type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: allowed worsening, as a share of the median
	moves              string  // per-layer only
}

var endToEnd = []metricDef{
	// World construction to the start of the measured phase (churn
	// warm-up, graph build, tenant registration and budget fill); the
	// median of setupReps set-ups.
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	// Successful allocations, and completed requests, per second of the
	// measured phase: the median over 1 s windows. A request is a
	// serve tenant request, a unit of churnPerReq allocations on churn,
	// graphPerReq walk-replace steps on graph.
	{name: "allocs_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "req_per_s", unit: "1/s", better: "higher", bound: 0.25},
	// Request latency (serve: from the request's due time, so generator
	// lateness and refused requests count), by samples.pctSplit.
	{name: "req_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "req_p99_ms", unit: "ms", better: "lower", bound: 0.25},
	// Mutator-visible stops from the collection hook, one per cycle: its
	// Duration (for a concurrent cycle, snapshot plus final pause); by
	// samples.pctSplit.
	{name: "pause_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "pause_p95_ms", unit: "ms", better: "lower", bound: 0.25},
	// Committed heap at the end of the measured phase; the heap never
	// unmaps, so this is its peak: the paper's space metric.
	{name: "heap_peak_mb", unit: "MiB", better: "lower", bound: 0.1},
	// Process user+sys CPU over the measured phase per allocation
	// (churn, graph) or per request (serve).
	{name: "cpu_us_per_op", unit: "us", better: "lower", bound: 0.25},
}

var perLayer = []metricDef{
	{name: "core.mutator.alloc_ns_p50", unit: "ns", better: "lower", moves: "allocs_per_s on churn"},
	{name: "core.mutator.alloc_ns_p99", unit: "ns", better: "lower", moves: "allocs_per_s on churn; req_p99_ms on serve"},
	{name: "core.mutator.fast_share", unit: "ratio", better: "higher", moves: "allocs_per_s on churn"},
	{name: "core.mutator.refill_slots_per_refill", unit: "count", better: "higher", moves: "allocs_per_s on churn"},
	{name: "core.mutator.flushed_share", unit: "ratio", better: "lower", moves: "allocs_per_s and heap_peak_mb on churn"},
	{name: "core.mutator.alloc_busy_s", unit: "s", better: "lower", moves: "cpu_us_per_op on churn"},
	{name: "core.store_ns_p50", unit: "ns", better: "lower", moves: "allocs_per_s on graph"},
	{name: "core.store_ns_p99", unit: "ns", better: "lower", moves: "allocs_per_s on graph"},
	{name: "core.load_ns_p50", unit: "ns", better: "lower", moves: "allocs_per_s on graph"},
	{name: "core.load_ns_p99", unit: "ns", better: "lower", moves: "allocs_per_s on graph"},
	{name: "core.safepoint.stop_ms_p50", unit: "ms", better: "lower", moves: "pause_p95_ms on serve and churn"},
	{name: "core.safepoint.stop_ms_p95", unit: "ms", better: "lower", moves: "pause_p95_ms on serve and churn"},
	{name: "core.safepoint.stops", unit: "count", better: "lower", moves: "pause_p95_ms on serve and churn"},
	{name: "core.safepoint.handles_end", unit: "count", better: "lower", moves: "pause_p95_ms on serve"},
	{name: "core.cycle.count", unit: "count", better: "lower", moves: "cpu_us_per_op and heap_peak_mb on churn and graph"},
	{name: "core.cycle.alloc_mb_per_cycle", unit: "MiB", better: "higher", moves: "cpu_us_per_op and heap_peak_mb on churn and graph"},
	{name: "core.cycle.duration_ms_p50", unit: "ms", better: "lower", moves: "pause_p50_ms on churn"},
	{name: "core.concurrent.snapshot_ms_p95", unit: "ms", better: "lower", moves: "pause_p95_ms on graph"},
	{name: "core.concurrent.final_ms_p50", unit: "ms", better: "lower", moves: "pause_p95_ms on graph"},
	{name: "core.concurrent.final_ms_p95", unit: "ms", better: "lower", moves: "pause_p95_ms on graph"},
	{name: "core.concurrent.final_dirty_blocks_mean", unit: "count", better: "lower", moves: "pause_p95_ms on graph"},
	{name: "core.concurrent.rescan_passes_mean", unit: "count", better: "lower", moves: "pause_p95_ms on graph"},
	{name: "core.concurrent.marked_concurrent_share", unit: "ratio", better: "higher", moves: "pause_p95_ms on graph"},
	{name: "core.concurrent.phase_ms_p50", unit: "ms", better: "lower", moves: "heap_peak_mb and cpu_us_per_op on graph"},
	{name: "core.concurrent.workers_mean", unit: "count", better: "higher", moves: "heap_peak_mb and cpu_us_per_op on graph"},
	{name: "core.pacer.assist_ms", unit: "ms", better: "lower", moves: "allocs_per_s on graph"},
	{name: "core.barrier.dirty_blocks_per_cycle", unit: "count", better: "lower", moves: "allocs_per_s on graph"},
	{name: "core.tenant.admit_ns_p50", unit: "ns", better: "lower", moves: "req_p50_ms on serve"},
	{name: "core.tenant.admit_ns_p99", unit: "ns", better: "lower", moves: "req_p50_ms on serve"},
	{name: "core.tenant.deny_ms_p50", unit: "ms", better: "lower", moves: "req_p99_ms and cpu_us_per_op on serve"},
	{name: "core.tenant.deny_ms_p99", unit: "ms", better: "lower", moves: "req_p99_ms and cpu_us_per_op on serve"},
	{name: "core.tenant.evict_ms_p50", unit: "ms", better: "lower", moves: "req_p99_ms and cpu_us_per_op on serve"},
	{name: "core.tenant.arrive_ms_p50", unit: "ms", better: "lower", moves: "req_p99_ms and cpu_us_per_op on serve"},
	{name: "core.tenant.forced_collections", unit: "count", better: "lower", moves: "req_p99_ms and cpu_us_per_op on serve"},
	{name: "core.tenant.denials", unit: "count", better: "lower", moves: "refused_share on serve (exact)"},
	{name: "core.tenant.evictions", unit: "count", better: "lower", moves: "refused_share on serve (exact)"},
	{name: "core.tenant.refused_share", unit: "ratio", better: "lower", moves: "refused requests over requests attempted on serve (exact for a tape)"},
	{name: "mark.pause_ms_p50", unit: "ms", better: "lower", moves: "pause_p95_ms on churn and serve"},
	{name: "mark.pause_ms_p95", unit: "ms", better: "lower", moves: "pause_p95_ms on churn and serve"},
	{name: "mark.objects_per_cycle", unit: "count", better: "lower", moves: "pause_p95_ms on graph"},
	{name: "mark.objs_per_ms", unit: "1/ms", better: "higher", moves: "pause_p95_ms on graph"},
	{name: "mark.fields_per_object", unit: "count", better: "lower", moves: "pause_p95_ms on graph"},
	{name: "mark.steals", unit: "count", better: "higher", moves: "pause_p95_ms on graph"},
	{name: "blacklist.pages_end", unit: "count", better: "lower", moves: "heap_peak_mb on churn and graph"},
	{name: "blacklist.false_refs_per_cycle", unit: "count", better: "lower", moves: "heap_peak_mb on churn and graph"},
	{name: "blacklist.block_skips", unit: "count", better: "lower", moves: "heap_peak_mb on churn and graph"},
	{name: "blacklist.false_retained_kb", unit: "KiB", better: "lower", moves: "heap_peak_mb on churn and graph"},
	{name: "alloc.sweep_ms_p50", unit: "ms", better: "lower", moves: "pause_p95_ms on churn"},
	{name: "alloc.sweep_ms_p95", unit: "ms", better: "lower", moves: "pause_p95_ms on churn"},
	{name: "alloc.lazy_swept_blocks", unit: "count", better: "lower", moves: "allocs_per_s on churn"},
	{name: "alloc.conc_sweep_blocks", unit: "count", better: "higher", moves: "allocs_per_s on graph"},
	{name: "alloc.expansions", unit: "count", better: "lower", moves: "heap_peak_mb on all workloads"},
	{name: "alloc.live_mb_end", unit: "MiB", better: "lower", moves: "heap_peak_mb on all workloads"},
	{name: "bench.late_ms_p99", unit: "ms", better: "lower", moves: "serve generator lateness (0 for closed loops)"},
	{name: "bench.trace_overhead_pct", unit: "%", better: "lower", moves: "traced vs untraced primary throughput"},
	{name: "bench.span_coverage", unit: "ratio", better: "higher", moves: "share of the loop (churn, graph) or request (serve) time the collector-call spans cover"},
	{name: "bench.pause_samples", unit: "count", better: "higher", moves: "samples behind pause_p50_ms and pause_p95_ms"},
	{name: "bench.req_samples", unit: "count", better: "higher", moves: "samples behind req_p50_ms and req_p99_ms"},
}
