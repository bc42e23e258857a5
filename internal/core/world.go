// Package core assembles the conservative collector: the simulated
// address space, the mutator machine, the block allocator, the marker
// with blacklisting, and the collection policy.
//
// A World is the analogue of one process image in the paper: static
// data segments, a mutator stack and register file, and a collected
// heap. Collection scans registers, the live stack, and every root
// segment conservatively, then scans reached heap objects
// conservatively (except pointer-free "atomic" objects), then sweeps.
//
// The collection-ordering technique of the paper's section 3 is
// honoured: "we ensure that garbage collections take place at regular
// intervals, with at least one (normally very fast) garbage collection
// occurring just after system start up before any allocation has taken
// place" — platform profiles call Collect immediately after
// constructing and polluting a world, so false references from static
// data are blacklisted before they can pin anything.
package core

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alloc"
	"repro/internal/blacklist"
	"repro/internal/mark"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// BlacklistMode selects the blacklist representation.
type BlacklistMode int

// Blacklist modes.
const (
	// BlacklistOff disables blacklisting (the paper's comparison rows).
	BlacklistOff BlacklistMode = iota
	// BlacklistDense uses the bit-array form ("implemented as a bit
	// array, indexed by page numbers").
	BlacklistDense
	// BlacklistHashed uses the hash-table form recommended "if the heap
	// is discontinuous".
	BlacklistHashed
)

func (m BlacklistMode) String() string {
	switch m {
	case BlacklistDense:
		return "dense"
	case BlacklistHashed:
		return "hashed"
	default:
		return "off"
	}
}

// Config parameterises a World. The zero value is completed by
// reasonable defaults (see withDefaults).
type Config struct {
	// HeapBase, InitialHeapBytes, ReserveHeapBytes and ExpandIncrement
	// configure the heap geometry (see alloc.Config).
	HeapBase         mem.Addr
	InitialHeapBytes int
	ReserveHeapBytes int
	ExpandIncrement  int

	// Pointer and Alignment select the conservativism operating point.
	Pointer   mark.PointerPolicy
	Alignment mark.AlignPolicy

	// Blacklisting selects the blacklist mode; Granule its granularity
	// in bytes (default one page); HashBuckets the hashed table size.
	Blacklisting BlacklistMode
	Granule      uint32
	HashBuckets  int
	// ExpireAge removes blacklist entries not re-observed within this
	// many collections; 0 keeps them forever.
	ExpireAge uint32

	// AllowAtomicOnBlacklisted and AtomicBlacklistMaxWords, FreeBlocks,
	// SkipPageBoundarySlot pass through to the allocator.
	AllowAtomicOnBlacklisted bool
	AtomicBlacklistMaxWords  int
	FreeBlocks               alloc.FreeBlockPolicy
	SkipPageBoundarySlot     bool
	// DiscontiguousGrowth lets the heap grow by mapping extents at
	// non-adjacent addresses once the first reservation is spent — the
	// paper's second collector, whose discontinuous heap is why "it
	// makes sense to implement [the blacklist] as a hash table". It
	// therefore requires BlacklistHashed (or BlacklistOff): a dense
	// list covers only the first extent.
	DiscontiguousGrowth bool

	// GCDivisor triggers a collection when allocation since the last
	// one exceeds heapSize/GCDivisor (default 2; 0 disables automatic
	// collection).
	GCDivisor int
	// FreeSpaceDivisor expands the heap after a collection that leaves
	// less than heapSize/FreeSpaceDivisor free (default 4), so that a
	// mostly-live heap does not thrash.
	FreeSpaceDivisor int

	// AllocatorResidue simulates the allocator's own call frames: each
	// allocation briefly pushes a frame holding the fresh pointer and
	// pops it, leaving the pointer as stack residue — "often the
	// initial pointer value that is then accidentally preserved is
	// stored by the allocator or collector itself" (section 3.1).
	AllocatorResidue bool
	// AllocatorSelfClean makes that frame clear itself before exit,
	// the paper's countermeasure.
	AllocatorSelfClean bool

	// DesperateFallback lets an allocation use blacklisted pages when
	// collection and expansion have both failed, instead of reporting
	// exhaustion — the real collector's behaviour (it warns "needed to
	// allocate blacklisted block" and proceeds).
	DesperateFallback bool

	// Generational enables sticky-mark-bit minor collections in the
	// style of the paper's reference [13] (Demers et al., POPL 1990):
	// marked objects are "old" and are only rescanned when their page
	// was written since the last collection; unmarked objects are
	// "young" and are collected by cheap minor cycles. The paper's
	// section 3.1 observes that stray stack pointers place "a ceiling
	// on the effectiveness" of exactly this scheme — experiment E12.
	Generational bool
	// MinorDivisor triggers a minor collection when allocation since
	// the last collection exceeds heapSize/MinorDivisor (default 8).
	MinorDivisor int
	// FullEvery makes every n-th collection a full one in generational
	// mode (default 8).
	FullEvery int

	// Incremental enables incremental cycles (see incremental.go):
	// marking proceeds in bounded steps piggybacked on allocations and
	// only a short finale stops the world. Mutually exclusive with
	// Generational.
	Incremental bool
	// MarkQuantum bounds the marking work per allocation during an
	// active incremental cycle, in objects (default 64). Concurrent
	// cycles use it twice over: as the background driver's per-chunk
	// scan budget, and as the allocation-proportional assist each
	// slow-path allocation contributes to an in-flight cycle, which
	// keeps marking paced with allocation even when the driver
	// goroutine is starved of processor time. The cached fast path
	// never assists.
	MarkQuantum int

	// ConcurrentMark enables mostly-concurrent cycles (see
	// concurrent.go): a cycle opens with a short snapshot pause that
	// scans the roots and resumes the mutators, marking then runs on a
	// background goroutine (parallel across MarkWorkers when the width
	// allows) while mutators keep allocating, and a bounded final pause
	// rescans write-barrier-dirtied blocks, re-scans the roots, drains,
	// and sweeps. Composes with Generational (minor cycles run
	// concurrently too), LazySweep and LineAlloc. Mutually exclusive
	// with Incremental, which is the single-threaded ancestor of the
	// same state machine.
	ConcurrentMark bool

	// ConcMarkWorkers sets how many detached background goroutines mark
	// during a concurrent cycle (see detached.go). Values above 1 pull
	// from the shared gray queue without holding the world lock: heap
	// words are then accessed atomically, mark bits are CAS, and heap
	// structure is guarded by a reader-writer lock only the allocator's
	// mutations take exclusively. 1 pins the lock-chunked single-driver
	// cycle (the pre-detached code path, unchanged). 0 — the default —
	// is adaptive via AutoMarkWorkers, so small heaps and single-core
	// schedulers keep the cheaper lock-chunked form. Only meaningful
	// with ConcurrentMark.
	ConcMarkWorkers int

	// ConcurrentSweep moves deferred sweep work onto a background
	// goroutine after each cycle's finale (implies LazySweep): blocks
	// are classified a chunk at a time under the world lock while the
	// mutators run, with the allocator's demand drain still covering
	// any block the sweeper has not reached — allocation addresses and
	// reclamation totals stay bit-identical to the eager sweep's.
	ConcurrentSweep bool

	// MarkWorkers sets the number of mark-phase workers. Values above 1
	// shard the stop-the-world mark phase across that many goroutines
	// with CAS-set mark bits and work stealing (see internal/mark,
	// parallel.go); the marked object set, byte counts and blacklisted
	// pages are identical to a serial cycle's. 1 forces serial marking
	// (the original code path, unchanged). 0 — the default — is
	// adaptive: each mark phase picks a count from runtime.GOMAXPROCS
	// and the live heap size via AutoMarkWorkers, so small heaps mark
	// serially (coordination would dominate) and large heaps on big
	// machines parallelise without configuration. Incremental cycles
	// always mark serially: their bounded steps run inside the mutator.
	MarkWorkers int

	// LazySweep moves sweep work out of the stop-the-world pause: after
	// marking, blocks are classified in O(1) each from their mark
	// summaries — empty blocks released at the barrier, fully-live
	// blocks left untouched, mixed blocks queued — and the allocator
	// sweeps queued blocks on demand as it refills free lists, finishing
	// any remainder before the next cycle's mark phase. Reclamation
	// totals (CollectionStats.Sweep) are identical to the eager sweep's;
	// only the timing of the per-slot work moves. Default off: the
	// original eager sweep, unchanged.
	LazySweep bool

	// LineAlloc switches small untyped allocation to the line-structured
	// bump profile (see alloc.Config.LineAlloc and alloc/lines.go):
	// mutator caches hold {cursor, limit} bump spans carved over runs of
	// wholly-free lines instead of slot runs, so the allocation fast
	// path is a pointer increment with no heap access, and the sweep
	// classifies blocks by line occupancy instead of threading free
	// lists. Reclamation totals are identical to the free-list profile;
	// on line-aligned size classes allocation addresses are too (the
	// differential tests assert both). Composes with every cycle shape,
	// including incremental and concurrent cycles: outstanding central
	// spans are flushed at each cycle's start and finale, and returned
	// span slots drop any conservative mark they picked up mid-cycle.
	// Default off.
	LineAlloc bool
}

func (c Config) withDefaults() Config {
	if c.HeapBase == 0 {
		c.HeapBase = 0x400000
	}
	if c.InitialHeapBytes == 0 {
		c.InitialHeapBytes = 1 << 20
	}
	if c.ReserveHeapBytes == 0 {
		c.ReserveHeapBytes = 64 << 20
	}
	if c.Granule == 0 {
		c.Granule = mem.PageBytes
	}
	if c.HashBuckets == 0 {
		c.HashBuckets = 1 << 14
	}
	if c.GCDivisor == 0 {
		c.GCDivisor = 2
	}
	if c.FreeSpaceDivisor == 0 {
		c.FreeSpaceDivisor = 4
	}
	if c.MinorDivisor == 0 {
		c.MinorDivisor = 8
	}
	if c.FullEvery == 0 {
		c.FullEvery = 8
	}
	if c.MarkQuantum == 0 {
		c.MarkQuantum = 64
	}
	if c.ConcurrentSweep {
		// The background sweeper classifies the lazy sweep's deferred
		// blocks; without the deferral there is nothing to sweep outside
		// the pause.
		c.LazySweep = true
	}
	// MarkWorkers 0 stays 0: the adaptive per-phase selection.
	return c
}

// AutoMarkWorkers is the adaptive mark-worker selection used when
// Config.MarkWorkers is 0: given the scheduler's processor count and
// the live heap size (bytes live after the previous sweep), it returns
// how many workers the next mark phase should use. Small heaps mark
// serially — sharding a sub-8 MiB mark loses more to worker startup
// and stealing than it gains — and larger heaps scale in powers of two
// up to 8 workers, never beyond the processor count. The selection
// table is pinned by TestAutoMarkWorkersTable.
func AutoMarkWorkers(procs int, liveBytes uint64) int {
	if procs <= 1 {
		return 1
	}
	atMost := func(n int) int {
		if n > procs {
			return procs
		}
		return n
	}
	switch {
	case liveBytes < 8<<20:
		return 1
	case liveBytes < 32<<20:
		return atMost(2)
	case liveBytes < 128<<20:
		return atMost(4)
	default:
		return atMost(8)
	}
}

// RootSource is the machine state the collector scans in addition to
// the root segments: a register file and a live stack.
// internal/machine.Machine implements it. A world scans the source
// attached with SetMutator plus one per Mutator handle (see
// mutator.go).
type RootSource interface {
	// Registers returns the full register file.
	Registers() []mem.Word
	// LiveStack returns the live stack words [SP, stack top) and the
	// address of the first word.
	LiveStack() ([]mem.Word, mem.Addr)
	// OnAllocate is invoked on every allocation (stack-clearing hook).
	OnAllocate()
}

// residueSimulator is implemented by mutators that can simulate the
// allocator's own transient stack frames.
type residueSimulator interface {
	SimulateCallResidue(clean bool, vals ...mem.Word)
}

// CollectionStats describes one collection.
type CollectionStats struct {
	Mark      mark.Stats
	Sweep     alloc.SweepResult
	Blacklist blacklist.Stats // cumulative at end of cycle
	Duration  time.Duration
	HeapBytes int
	// Minor is true for generational minor collections.
	Minor bool
	// DirtyBlocks is how many heap blocks the write barrier recorded
	// (minor collections only).
	DirtyBlocks int
	// Promoted counts objects newly marked by a minor collection: young
	// survivors promoted to the old generation.
	Promoted uint64
	// Incremental is true when the cycle ran incrementally; Steps is
	// how many bounded marking steps preceded the finale.
	Incremental bool
	Steps       int
	// Concurrent is true when the cycle ran mostly-concurrently:
	// a snapshot pause, background marking, a bounded final pause.
	// RescanPasses is how many concurrent dirty-block rescan passes ran
	// before the finale; FinalDirtyBlocks how many dirty blocks the
	// final pause itself rescanned; MarkedConcurrent how many objects
	// were marked outside the two pauses (the >90% acceptance metric).
	Concurrent       bool
	RescanPasses     int
	FinalDirtyBlocks int
	MarkedConcurrent uint64
	// ConcWorkers is how many detached background mark workers the
	// cycle ran (0 for a lock-chunked cycle); ConcPhaseNs is the
	// wall-clock length of the concurrent marking phase between the
	// snapshot and final pauses.
	ConcWorkers int
	ConcPhaseNs int64
	// PauseSnapshotNs and PauseFinalNs are the concurrent cycle's two
	// stop-the-world windows; Duration is their sum for such cycles.
	PauseSnapshotNs int64
	PauseFinalNs    int64
	// PauseMarkNs is the part of the pause spent in the mark phase
	// (for incremental cycles: the finale's rescan and drain only).
	PauseMarkNs int64
	// PauseSweepNs is the part of the pause spent in the sweep phase:
	// the O(blocks) classification barrier under LazySweep, the full
	// per-slot heap walk otherwise.
	PauseSweepNs int64
	// PauseStopNs is the time spent stopping registered Mutator
	// handles before the cycle: parking each at its next allocation
	// point and flushing its caches back to the free lists. Zero when
	// no Mutator handles exist (Duration covers the pause from the
	// point the world is stopped).
	PauseStopNs int64
	// SweepDeferredBlocks is how many blocks this cycle's sweep left
	// pending for lazy sweeping (always 0 with LazySweep off).
	SweepDeferredBlocks int
	// Provenance is true when the cycle recorded retention provenance
	// (World.EnableProvenance); ProvenanceRecords is how many
	// first-marking parent records its mark phase captured.
	Provenance        bool
	ProvenanceRecords uint64
}

// World is one simulated process image under garbage collection.
type World struct {
	Space     *mem.AddressSpace
	Heap      *alloc.Allocator
	Marker    *mark.Marker
	Blacklist blacklist.List

	// mu is the central lock: it guards every collector structure —
	// the allocator, marker, blacklist, address space, and all the
	// fields below. Single-threaded use never contends on it. Mutator
	// handles (mutator.go) take it only on their slow path; their
	// common allocation is a pointer bump under the handle's own lock.
	// Lock order: mu strictly before any Mutator.mu.
	mu sync.Mutex
	// muts holds every Mutator handle ever created on this world, in
	// creation order. stopMutatorsLocked parks them all (locking each
	// handle in order) before any phase that marks, sweeps, or
	// reclassifies blocks.
	muts []*Mutator
	// lastStopNs is the duration of the most recent safepoint stop,
	// recorded into the next cycle's CollectionStats.
	lastStopNs int64

	cfg Config
	mut RootSource
	// par is the cached parallel marker: non-nil once any mark phase
	// has run with more than one worker. parWorkers is its worker
	// count; with cfg.MarkWorkers == 0 (adaptive) the marker is
	// rebuilt whenever AutoMarkWorkers picks a different count.
	// lastMarkWorkers is what the most recent mark phase actually used
	// (the mark_workers gauge).
	par             *mark.Parallel
	parWorkers      int
	lastMarkWorkers int
	// mcfg is the mark configuration NewWorld resolved; kept so the
	// adaptive path can build parallel markers after construction.
	mcfg            mark.Config
	collections     int
	minorsSinceFull int
	incActive       bool
	incSteps        int
	// Concurrent-cycle state (concurrent.go). concActive marks a cycle
	// in flight; concMinor its generational kind; concPar whether it
	// marks through w.par (width was > 1 at the snapshot); concGen is a
	// staleness counter so a background driver from a finished cycle
	// exits instead of driving the next one; concPasses counts the
	// concurrent rescan passes run so far; concDirty is the serial
	// width's staged dirty-block rescan queue; concDirtyBlocks the
	// minor snapshot's remembered-set size; concSnapMarked the objects
	// marked inside the snapshot pause; concStart/concSnapNs anchor the
	// cycle's pause accounting; concStealsStart snapshots the parallel
	// marker's cumulative steal count at the cycle start.
	concActive      bool
	concMinor       bool
	concPar         bool
	concGen         uint64
	concPasses      int
	concDirty       []int
	concDirtyBlocks int
	concSnapMarked  uint64
	concStart       time.Time
	concSnapNs      int64
	concStealsStart uint64
	// Detached-marking state (detached.go). heapMu guards heap
	// *structure* against the detached workers: workers hold the read
	// side per chunk, allocator mutations take the write side through
	// lockHeapLocked; lock order is mu strictly before heapMu.
	// concDetached marks a detached phase in flight (mutated under mu);
	// concGenA atomically mirrors concGen for the workers' staleness
	// checks (0 = retired); concWorkers is the cycle's detached worker
	// count. The pacer fields implement the rate-based assist:
	// pacerCredit is marked bytes banked (negative = debt), pacerRatio
	// converts allocated bytes to owed mark bytes, pacerLastAlloc is
	// the allocation cursor of the pacer's last look.
	heapMu         sync.RWMutex
	concDetached   bool
	concGenA       atomic.Uint64
	concWorkers    int
	pacerCredit    atomic.Int64
	pacerRatio     float64
	pacerLastAlloc uint64
	last           CollectionStats
	finalizable    map[mem.Addr]struct{}
	reclaimed      []mem.Addr
	hook           func(CollectionStats)
	// Multi-tenant serving state (tenant.go): tenants in creation order
	// (a Tenant's id is its 1-based index here).
	tenants []*Tenant

	// Observability (see DESIGN.md section 5c). tracer is nil unless
	// SetTracer/EnableTracing installed one: every emit site nil-checks,
	// so un-traced collections pay one compare per site and allocate
	// nothing. gctrace, when set, receives one text line per cycle.
	// met is the always-on metrics view; epoch anchors gctrace
	// timestamps; prevSteals turns the parallel marker's cumulative
	// steal count into per-cycle deltas.
	tracer     *trace.Recorder
	gctrace    io.Writer
	met        worldMetrics
	epoch      time.Time
	prevSteals uint64

	// prov is the retention-provenance state (provenance.go): enabled
	// turns recording on for subsequent collections, records maps each
	// marked object to its first-marking parent as of the cycle in
	// provCycle (rebuilt by full cycles, merged by minors), valid says
	// the map describes a completed cycle.
	prov struct {
		enabled bool
		valid   bool
		cycle   int
		records map[mem.Addr]mark.ParentRecord
	}

	// watch is the online retention watcher (watch.go), nil unless
	// StartRetentionWatch installed one: the collection barrier
	// nil-checks it, so an unwatched collection pays one compare and
	// allocates nothing (asserted by TestCollectZeroAllocsUnwatched).
	watch *retWatch
}

// worldMetrics is the world's registry plus direct handles to every
// metric it maintains, so the per-cycle recording path is plain atomic
// adds with no map lookups (and no allocation).
type worldMetrics struct {
	reg *metrics.Registry

	// Cycle counters, accumulated from each CollectionStats as it is
	// produced: the registry is a running sum of the per-cycle view
	// (asserted by TestMetricsMatchCollectionStats).
	cycles, minorCycles, incCycles *metrics.Counter
	allocTriggered, incSteps       *metrics.Counter
	objectsMarked, bytesMarked     *metrics.Counter
	objectsSwept, bytesSwept       *metrics.Counter
	pauseNs, markPauseNs, sweepNs  *metrics.Counter
	markSteals                     *metrics.Counter

	// Concurrent-mark counters: cycles run concurrently, the summed
	// bounded final pauses, blocks newly dirtied by the write barrier,
	// and queue steals by the background bounded runs.
	concCycles, finalPauseNs     *metrics.Counter
	barrierDirty, concMarkSteals *metrics.Counter

	// Pacer and background-sweep observability: time mutators spent in
	// slow-path assists, the pacer's current credit (negative = debt),
	// and blocks the background sweeper classified outside any pause.
	pacerAssistNs   *metrics.Counter
	pacerCreditB    *metrics.Gauge
	concSweepBlocks *metrics.Counter

	// Safepoint and mutator-cache counters, maintained at the stop and
	// refill sites rather than per cycle (a safepoint can also close a
	// MarkOnly measurement, and refills happen between cycles).
	stwStops, stwPauseNs           *metrics.Counter
	cacheRefills, cacheRefillSlots *metrics.Counter
	cacheFlushSlots                *metrics.Counter
	// Bump-span refill counters (Config.LineAlloc), the line profile's
	// analogue of the cache refill counters above.
	spanRefills, spanRefillSlots *metrics.Counter

	// Provenance counters: cycles that recorded, and the first-mark
	// records they captured (running sums of CollectionStats.Provenance
	// and .ProvenanceRecords, like the cycle counters above).
	provCycles, provRecords *metrics.Counter

	// Retention-watch observability (watch.go): collections the watcher
	// sampled, alerts raised and their summed windowed growth, alerts
	// dropped by a slow subscriber, and the current positive-growth
	// suspect count. leakDiffHist is the snapshot-diff cost
	// distribution (build totals + trend update, nanoseconds).
	leakWatched, leakAlerts *metrics.Counter
	leakAlertBytes          *metrics.Counter
	leakDropped             *metrics.Counter
	leakSuspects            *metrics.Gauge
	leakDiffHist            *metrics.Histogram

	// Multi-tenant serving (tenant.go): registered tenants, the bytes
	// currently charged against their budgets, allocations denied over
	// budget, and wholesale evictions.
	tenants, tenantLiveBytes       *metrics.Gauge
	budgetDenials, tenantEvictions *metrics.Counter

	// Pause-time histograms (log₂ buckets, nanoseconds): the
	// distribution complement to the *_pause_ns running sums. Not part
	// of Snapshot; see Registry.Histogram. finalHist is the concurrent
	// cycles' bounded-final-pause distribution (the pausebench p99).
	markHist, sweepHist, stopHist *metrics.Histogram
	finalHist                     *metrics.Histogram

	// Level gauges, refreshed from the allocator and blacklist at each
	// cycle barrier and on Metrics()/MetricsSnapshot().
	heapBytes, liveBytes, liveObjects *metrics.Gauge
	pendingSweepBlocks, lazySweptBlk  *metrics.Gauge
	blacklistPages, blAdds, blHits    *metrics.Gauge
	bytesAllocated, objectsAllocated  *metrics.Gauge
	heapExpansions, desperateAllocs   *metrics.Gauge
	markWorkers, mutators             *metrics.Gauge
	// Line-heap utilization gauges (zero unless Config.LineAlloc):
	// wholly-free (carvable) lines, lines holding an allocated slot,
	// and the bytes stranded in partially-occupied lines — the
	// paper-style space-overhead view of bump allocation.
	lineLiveLines, lineFreeLines *metrics.Gauge
	lineWasteBytes               *metrics.Gauge
}

func newWorldMetrics() worldMetrics {
	reg := metrics.NewRegistry()
	return worldMetrics{
		reg:                reg,
		cycles:             reg.Counter("gc_cycles"),
		minorCycles:        reg.Counter("gc_minor_cycles"),
		incCycles:          reg.Counter("gc_incremental_cycles"),
		allocTriggered:     reg.Counter("gc_alloc_triggered"),
		incSteps:           reg.Counter("gc_incremental_steps"),
		objectsMarked:      reg.Counter("objects_marked"),
		bytesMarked:        reg.Counter("bytes_marked"),
		objectsSwept:       reg.Counter("objects_swept"),
		bytesSwept:         reg.Counter("bytes_swept"),
		pauseNs:            reg.Counter("pause_ns"),
		markPauseNs:        reg.Counter("mark_pause_ns"),
		sweepNs:            reg.Counter("sweep_pause_ns"),
		markSteals:         reg.Counter("mark_steals"),
		concCycles:         reg.Counter("gc_concurrent_cycles"),
		finalPauseNs:       reg.Counter("stw_final_pause_ns"),
		barrierDirty:       reg.Counter("barrier_dirty_blocks"),
		concMarkSteals:     reg.Counter("conc_mark_steals"),
		pacerAssistNs:      reg.Counter("pacer_assist_ns"),
		pacerCreditB:       reg.Gauge("pacer_credit_bytes"),
		concSweepBlocks:    reg.Counter("conc_sweep_blocks"),
		stwStops:           reg.Counter("stw_stops"),
		stwPauseNs:         reg.Counter("stw_pause_ns"),
		cacheRefills:       reg.Counter("cache_refills"),
		cacheRefillSlots:   reg.Counter("cache_refill_slots"),
		cacheFlushSlots:    reg.Counter("cache_flush_slots"),
		spanRefills:        reg.Counter("span_refills"),
		spanRefillSlots:    reg.Counter("span_refill_slots"),
		provCycles:         reg.Counter("provenance_cycles"),
		provRecords:        reg.Counter("provenance_records"),
		leakWatched:        reg.Counter("leak_watched_cycles"),
		leakAlerts:         reg.Counter("leak_alerts"),
		leakAlertBytes:     reg.Counter("leak_alerted_bytes"),
		leakDropped:        reg.Counter("leak_alerts_dropped"),
		leakSuspects:       reg.Gauge("leak_suspects"),
		tenants:            reg.Gauge("tenants"),
		tenantLiveBytes:    reg.Gauge("tenant_live_bytes"),
		budgetDenials:      reg.Counter("budget_denials"),
		tenantEvictions:    reg.Counter("tenant_evictions"),
		markHist:           reg.Histogram("mark_pause_ns_hist"),
		sweepHist:          reg.Histogram("sweep_pause_ns_hist"),
		stopHist:           reg.Histogram("stop_pause_ns_hist"),
		finalHist:          reg.Histogram("final_pause_ns_hist"),
		leakDiffHist:       reg.Histogram("leak_snapshot_diff_ns_hist"),
		heapBytes:          reg.Gauge("heap_bytes"),
		liveBytes:          reg.Gauge("live_bytes"),
		liveObjects:        reg.Gauge("live_objects"),
		pendingSweepBlocks: reg.Gauge("pending_sweep_blocks"),
		lazySweptBlk:       reg.Gauge("lazy_swept_blocks"),
		blacklistPages:     reg.Gauge("blacklist_pages"),
		blAdds:             reg.Gauge("blacklist_adds"),
		blHits:             reg.Gauge("blacklist_hits"),
		bytesAllocated:     reg.Gauge("bytes_allocated"),
		objectsAllocated:   reg.Gauge("objects_allocated"),
		heapExpansions:     reg.Gauge("heap_expansions"),
		desperateAllocs:    reg.Gauge("desperate_allocs"),
		markWorkers:        reg.Gauge("mark_workers"),
		mutators:           reg.Gauge("mutators"),
		lineLiveLines:      reg.Gauge("line_live_lines"),
		lineFreeLines:      reg.Gauge("line_free_lines"),
		lineWasteBytes:     reg.Gauge("line_waste_bytes"),
	}
}

// SetCollectionHook registers fn to be invoked after every collection
// (full, minor, or incremental finale) with its statistics; nil
// unregisters. The inspect package provides a gctrace-style formatter
// for the common logging case.
func (w *World) SetCollectionHook(fn func(CollectionStats)) { w.hook = fn }

// SetTracer attaches a structured event trace to the whole collection
// pipeline: the world's phase spans, the marker's blacklist additions
// and spills, the allocator's expansions and lazy sweep drains. nil
// detaches. Set it outside an active cycle.
func (w *World) SetTracer(r *trace.Recorder) {
	w.tracer = r
	w.Marker.SetTracer(r)
	if w.par != nil {
		w.par.SetTracer(r)
	}
	w.Heap.SetTracer(r)
	// The recorder's JSON dump carries this world's histogram
	// distributions (pause times, snapshot-diff costs) alongside the
	// events; when worlds share a recorder the last attach wins, same
	// as the events themselves.
	r.SetHistogramSource(w.met.reg.HistogramSnapshot)
}

// Tracer returns the attached trace recorder (nil when disabled).
func (w *World) Tracer() *trace.Recorder { return w.tracer }

// EnableTracing attaches a fresh recorder holding the last capacity
// events (trace.DefaultCapacity if capacity <= 0) and returns it.
func (w *World) EnableTracing(capacity int) *trace.Recorder {
	r := trace.New(capacity)
	w.SetTracer(r)
	return r
}

// SetGCTrace directs a one-line-per-cycle text trace to out (nil
// disables), in the spirit of the Go runtime's GODEBUG=gctrace=1:
//
//	gc 3 @0.412s full: 1.84ms pause (mark 1.72ms, sweep 0.06ms): 5000 live (40 KiB), 120 freed, heap 1024 KiB, 14 blacklisted
func (w *World) SetGCTrace(out io.Writer) { w.gctrace = out }

// Metrics returns the world's counter/gauge registry, with the level
// gauges freshly synchronised. The counters are running sums of every
// cycle's CollectionStats; the gauges mirror the allocator's and
// blacklist's current state.
func (w *World) Metrics() *metrics.Registry {
	w.mu.Lock()
	w.syncGauges()
	w.mu.Unlock()
	return w.met.reg
}

// MetricsSnapshot synchronises the gauges and returns every metric's
// current value in registration order.
func (w *World) MetricsSnapshot() []metrics.Sample {
	w.mu.Lock()
	w.syncGauges()
	w.mu.Unlock()
	return w.met.reg.Snapshot()
}

// syncGauges refreshes the level gauges from their owning subsystems.
// The allocator and blacklist reads are excluded against detached mark
// workers (whose chunks flush blacklist batches and bump mark
// summaries), hence the write-side hold.
func (w *World) syncGauges() {
	w.lockHeapLocked(func() { w.syncGaugesExcluded() })
}

func (w *World) syncGaugesExcluded() {
	st := w.Heap.Stats()
	bl := w.Blacklist.Stats()
	m := &w.met
	m.heapBytes.Set(int64(st.HeapBytes))
	m.liveBytes.Set(int64(st.BytesLive))
	m.liveObjects.Set(int64(st.ObjectsLive))
	m.pendingSweepBlocks.Set(int64(w.Heap.SweepPending()))
	m.lazySweptBlk.Set(int64(st.LazySweptBlocks))
	m.blacklistPages.Set(int64(w.Blacklist.Len()))
	m.blAdds.Set(int64(bl.Adds))
	m.blHits.Set(int64(bl.Hits))
	m.bytesAllocated.Set(int64(st.BytesAllocated))
	m.objectsAllocated.Set(int64(st.ObjectsAllocated))
	m.heapExpansions.Set(int64(st.Expansions))
	m.desperateAllocs.Set(int64(st.DesperateAllocs))
	m.markWorkers.Set(int64(w.lastMarkWorkers))
	m.pacerCreditB.Set(w.pacerCredit.Load())
	if w.cfg.LineAlloc {
		ls := w.Heap.LineStats()
		m.lineLiveLines.Set(int64(ls.LiveLines))
		m.lineFreeLines.Set(int64(ls.FreeLines))
		m.lineWasteBytes.Set(int64(ls.WasteBytes))
	}
	if len(w.tenants) > 0 {
		var live uint64
		for _, t := range w.tenants {
			live += t.live.Load()
		}
		m.tenantLiveBytes.Set(int64(live))
	}
}

// recordCycle folds one completed collection into the counters. Plain
// atomic adds on pre-registered metrics: no allocation, so an un-traced
// collection stays allocation-free.
func (w *World) recordCycle(st CollectionStats) {
	m := &w.met
	switch {
	case st.Concurrent:
		m.concCycles.Inc()
		m.finalPauseNs.Add(uint64(st.PauseFinalNs))
		m.finalHist.Record(uint64(st.PauseFinalNs))
	case st.Minor:
		m.minorCycles.Inc()
	case st.Incremental:
		m.incCycles.Inc()
		m.incSteps.Add(uint64(st.Steps))
	default:
		m.cycles.Inc()
	}
	m.objectsMarked.Add(st.Mark.ObjectsMarked)
	m.bytesMarked.Add(st.Mark.BytesMarked)
	m.objectsSwept.Add(st.Sweep.ObjectsFreed)
	m.bytesSwept.Add(st.Sweep.BytesFreed)
	m.pauseNs.Add(uint64(st.Duration.Nanoseconds()))
	m.markPauseNs.Add(uint64(st.PauseMarkNs))
	m.sweepNs.Add(uint64(st.PauseSweepNs))
	m.markHist.Record(uint64(st.PauseMarkNs))
	m.sweepHist.Record(uint64(st.PauseSweepNs))
	if st.Provenance {
		m.provCycles.Inc()
		m.provRecords.Add(st.ProvenanceRecords)
	}
	if w.par != nil {
		s := w.par.Steals()
		m.markSteals.Add(s - w.prevSteals)
		w.prevSteals = s
	}
}

// writeGCTrace renders the one-line cycle summary to w.gctrace.
func (w *World) writeGCTrace(st CollectionStats) {
	kind := "full"
	switch {
	case st.Concurrent && st.Minor:
		kind = fmt.Sprintf("concurrent-minor(%d passes)", st.RescanPasses)
	case st.Concurrent:
		kind = fmt.Sprintf("concurrent(%d passes)", st.RescanPasses)
	case st.Minor:
		kind = "minor"
	case st.Incremental:
		kind = fmt.Sprintf("incremental(%d steps)", st.Steps)
	}
	fmt.Fprintf(w.gctrace,
		"gc %d @%.3fs %s: %.2fms pause (mark %.2fms, sweep %.2fms): %d live (%d KiB), %d freed, heap %d KiB, %d blacklisted",
		w.collections, time.Since(w.epoch).Seconds(), kind,
		float64(st.Duration.Nanoseconds())/1e6,
		float64(st.PauseMarkNs)/1e6, float64(st.PauseSweepNs)/1e6,
		st.Sweep.ObjectsLive, st.Sweep.BytesLive/1024,
		st.Sweep.ObjectsFreed, st.HeapBytes/1024, w.Blacklist.Len())
	if st.Minor {
		fmt.Fprintf(w.gctrace, ", %d dirty blocks, %d promoted", st.DirtyBlocks, st.Promoted)
	}
	if st.SweepDeferredBlocks > 0 {
		fmt.Fprintf(w.gctrace, ", %d deferred", st.SweepDeferredBlocks)
	}
	if st.Concurrent {
		fmt.Fprintf(w.gctrace, ", snap %.2fms final %.2fms (%d dirty rescanned)",
			float64(st.PauseSnapshotNs)/1e6, float64(st.PauseFinalNs)/1e6,
			st.FinalDirtyBlocks)
	}
	if st.PauseStopNs > 0 {
		fmt.Fprintf(w.gctrace, ", stop %.2fms", float64(st.PauseStopNs)/1e6)
	}
	fmt.Fprintln(w.gctrace)
}

// GCTraceSummary renders a one-line pause-distribution summary from
// the world's histograms — the complement to the per-cycle gctrace
// line, typically printed once at the end of a run:
//
//	gc summary: 12 cycles: mark p50 0.42ms p95 1.84ms max 2.10ms; sweep ...; stop 3 stops p50 ...
func (w *World) GCTraceSummary() string {
	m := &w.met
	dist := func(h *metrics.Histogram) string {
		return fmt.Sprintf("p50 %.2fms p95 %.2fms max %.2fms",
			float64(h.Quantile(0.5))/1e6, float64(h.Quantile(0.95))/1e6, float64(h.Max())/1e6)
	}
	s := fmt.Sprintf("gc summary: %d cycles: mark %s; sweep %s; stop %d stops %s",
		m.markHist.Count(), dist(m.markHist), dist(m.sweepHist),
		m.stopHist.Count(), dist(m.stopHist))
	if n := m.finalHist.Count(); n > 0 {
		s += fmt.Sprintf("; final %d pauses %s", n, dist(m.finalHist))
	}
	if n := m.tenants.Load(); n > 0 {
		s += fmt.Sprintf("; tenants %d (%d KiB live)", n, m.tenantLiveBytes.Load()/1024)
	}
	if c := m.pacerCreditB.Load(); c != 0 {
		s += fmt.Sprintf("; pacer credit %d KiB", c/1024)
	}
	if n := m.leakDiffHist.Count(); n > 0 {
		s += fmt.Sprintf("; leakwatch %d samples diff %s", n, dist(m.leakDiffHist))
	}
	return s
}

// fireHook finalises the completed collection: fold it into the
// metrics, render the gctrace line, report it to the registered hook,
// and — under ConcurrentSweep — hand the cycle's deferred sweep
// backlog to a background sweeper once the world resumes.
func (w *World) fireHook() {
	if w.watch != nil {
		// Online retention watcher (watch.go): snapshot-diff this cycle's
		// provenance if it is a sampled one. Nil for unwatched worlds, so
		// the barrier pays one pointer compare and allocates nothing.
		w.watchSampleLocked()
	}
	w.recordCycle(w.last)
	w.syncGauges()
	if w.gctrace != nil {
		w.writeGCTrace(w.last)
	}
	if w.hook != nil {
		w.hook(w.last)
	}
	if w.cfg.ConcurrentSweep && w.Heap.SweepPending() > 0 {
		go w.driveSweep(w.collections)
	}
}

// NewWorld builds a world in the given address space (a fresh one if
// space is nil).
func NewWorld(space *mem.AddressSpace, cfg Config) (*World, error) {
	c := cfg.withDefaults()
	if space == nil {
		space = mem.NewAddressSpace()
	}
	var bl blacklist.List
	var err error
	switch c.Blacklisting {
	case BlacklistOff:
		bl = blacklist.Disabled{}
	case BlacklistDense:
		bl, err = blacklist.NewDense(c.HeapBase, c.HeapBase+mem.Addr(c.ReserveHeapBytes), c.Granule)
	case BlacklistHashed:
		bl, err = blacklist.NewHashed(c.HashBuckets, c.Granule)
	default:
		err = fmt.Errorf("core: unknown blacklist mode %d", c.Blacklisting)
	}
	if err != nil {
		return nil, err
	}
	if c.Generational && c.Incremental {
		return nil, fmt.Errorf("core: generational and incremental modes are mutually exclusive")
	}
	if c.ConcurrentMark && c.Incremental {
		return nil, fmt.Errorf("core: concurrent and incremental modes are mutually exclusive (concurrent marking subsumes the incremental state machine)")
	}
	if c.DiscontiguousGrowth && c.Blacklisting == BlacklistDense {
		return nil, fmt.Errorf("core: a discontinuous heap needs the hashed blacklist (paper, section 3)")
	}
	if c.ConcMarkWorkers < 0 {
		return nil, fmt.Errorf("core: ConcMarkWorkers must be >= 0, got %d", c.ConcMarkWorkers)
	}
	heap, err := alloc.New(space, alloc.Config{
		HeapBase:                 c.HeapBase,
		InitialBytes:             c.InitialHeapBytes,
		ReserveBytes:             c.ReserveHeapBytes,
		ExpandIncrement:          c.ExpandIncrement,
		Blacklist:                bl,
		InteriorPointers:         c.Pointer == mark.PointerInterior,
		AllowAtomicOnBlacklisted: c.AllowAtomicOnBlacklisted,
		AtomicBlacklistMaxWords:  c.AtomicBlacklistMaxWords,
		FreeBlocks:               c.FreeBlocks,
		SkipPageBoundarySlot:     c.SkipPageBoundarySlot,
		DiscontiguousGrowth:      c.DiscontiguousGrowth,
		LazySweep:                c.LazySweep,
		LineAlloc:                c.LineAlloc,
		// Heap-word stores go atomic whenever a cycle *could* detach
		// (adaptive selection can pick any width at any cycle); explicit
		// width 1 pins the plain-store lock-chunked path.
		AtomicWords: c.ConcurrentMark && c.ConcMarkWorkers != 1,
	})
	if err != nil {
		return nil, err
	}
	mcfg := mark.Config{Policy: c.Pointer, Alignment: c.Alignment, Blacklist: bl}
	w := &World{
		Space:       space,
		Heap:        heap,
		Marker:      mark.New(heap, mcfg),
		Blacklist:   bl,
		cfg:         c,
		mcfg:        mcfg,
		finalizable: map[mem.Addr]struct{}{},
		met:         newWorldMetrics(),
		epoch:       time.Now(),
	}
	heap.SetOwnerCredit(w.creditTenant)
	if c.MarkWorkers > 1 {
		w.par = mark.NewParallel(heap, mcfg, c.MarkWorkers)
		w.parWorkers = c.MarkWorkers
	}
	w.lastMarkWorkers = w.effectiveMarkWorkers()
	return w, nil
}

// effectiveMarkWorkers resolves the worker count the next mark phase
// will use: the configured count when pinned, otherwise the adaptive
// pick from the scheduler's processor count and the live bytes the
// previous sweep measured (so a world's first cycle marks serially).
func (w *World) effectiveMarkWorkers() int {
	if w.cfg.MarkWorkers > 0 {
		return w.cfg.MarkWorkers
	}
	return AutoMarkWorkers(runtime.GOMAXPROCS(0), w.Heap.Stats().BytesLive)
}

// Config returns the world's effective configuration.
func (w *World) Config() Config { return w.cfg }

// SetMutator attaches the root source whose registers and stack are
// scanned (concurrent mutator goroutines attach theirs through their
// Mutator handle instead; see World.NewMutator).
func (w *World) SetMutator(m RootSource) {
	w.mu.Lock()
	w.mut = m
	w.mu.Unlock()
}

// RootSource returns the root source attached with SetMutator
// (possibly nil).
func (w *World) RootSource() RootSource { return w.mut }

// Allocate allocates an object of nwords words, collecting and/or
// expanding the heap as needed. atomic marks the object pointer-free.
func (w *World) Allocate(nwords int, atomic bool) (mem.Addr, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.mut != nil {
		w.mut.OnAllocate()
	}
	return w.allocateLocked(nwords, w.mut,
		func() (mem.Addr, error) { return w.Heap.Alloc(nwords, atomic) },
		func() (mem.Addr, error) { return w.Heap.AllocDesperate(nwords, atomic) })
}

// RegisterLayout registers an object layout (one pointer flag per
// word) for typed allocation; see AllocateTyped.
func (w *World) RegisterLayout(ptrMask []bool) (alloc.DescID, error) {
	return w.Heap.RegisterDescriptor(ptrMask)
}

// AllocateTyped allocates an object with exact layout information: the
// collector scans only the registered pointer words. This is the
// "complete information on the location of pointers in the heap"
// operating point of the paper's introduction.
func (w *World) AllocateTyped(id alloc.DescID) (mem.Addr, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	d, err := w.Heap.Descriptor(id)
	if err != nil {
		return 0, err
	}
	if w.mut != nil {
		w.mut.OnAllocate()
	}
	return w.allocateLocked(d.Words, w.mut,
		func() (mem.Addr, error) { return w.Heap.AllocTyped(id) },
		nil)
}

// AllocateIgnoreOffPage allocates a large object under the client
// promise that a pointer to its first page is kept while it is live;
// deep interior pointers are then invalid and the blacklist only
// constrains the first page (observation 7 / the original collector's
// GC_malloc_ignore_off_page).
func (w *World) AllocateIgnoreOffPage(nwords int, atomic bool) (mem.Addr, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.mut != nil {
		w.mut.OnAllocate()
	}
	return w.allocateLocked(nwords, w.mut,
		func() (mem.Addr, error) { return w.Heap.AllocIgnoreOffPage(nwords, atomic) },
		nil)
}

// allocateLocked runs the collection/expansion retry policy around one
// allocation primitive. Callers hold w.mu and have already invoked the
// OnAllocate hook; src is the root source of the allocating mutator
// (for allocator-residue simulation) — the attached RootSource for the
// direct World entry points, the handle's source for Mutator ones.
func (w *World) allocateLocked(nwords int, src RootSource, try, desperate func() (mem.Addr, error)) (mem.Addr, error) {
	if w.cfg.ConcurrentMark {
		// The allocation primitives mutate heap structure (free-list
		// threading, block claims, extent mapping); during a detached
		// phase they must exclude the background workers' read-holds.
		// lockHeapLocked is a bare call outside one, so the wrap costs
		// lock-chunked and stop-the-world cycles nothing but a closure.
		tryRaw, desperateRaw := try, desperate
		try = func() (p mem.Addr, err error) {
			w.lockHeapLocked(func() { p, err = tryRaw() })
			return p, err
		}
		if desperateRaw != nil {
			desperate = func() (p mem.Addr, err error) {
				w.lockHeapLocked(func() { p, err = desperateRaw() })
				return p, err
			}
		}
	}
	// Regular-interval trigger. Incremental mode starts a cycle and
	// advances it in bounded steps; concurrent mode starts a cycle and
	// hands it to a background driver goroutine; generational mode
	// prefers the cheaper minor cycle with a periodic full cycle.
	if w.cfg.ConcurrentMark {
		if !w.concActive {
			st := w.Heap.Stats()
			if w.cfg.Generational && w.cfg.MinorDivisor > 0 &&
				st.BytesSinceGC > uint64(st.HeapBytes/w.cfg.MinorDivisor) {
				minor := w.minorsSinceFull < w.cfg.FullEvery-1
				kind := int64(3)
				if minor {
					kind = 4
				}
				w.allocTrigger(kind)
				w.startConcurrentLocked(minor)
				go w.driveConcurrent(w.concGen)
			} else if !w.cfg.Generational && w.cfg.GCDivisor > 0 &&
				st.BytesSinceGC > uint64(st.HeapBytes/w.cfg.GCDivisor) {
				w.allocTrigger(3)
				w.startConcurrentLocked(false)
				go w.driveConcurrent(w.concGen)
			}
		} else {
			// Rate-based assist (detached.go): the pacer debits this
			// allocation's share of the cycle's marking and repays it with
			// bounded chunks only when the background workers (or the
			// lock-chunked driver) have fallen behind, so marking keeps
			// pace with allocation without taxing every slow path the way
			// the old fixed per-allocation chunk did. A repayment chunk
			// that drains the gray set runs the finale right here —
			// completing a cycle from an allocation slow path is already
			// the ErrNeedMemory path's behaviour.
			w.pacerAssistLocked()
		}
	} else if w.cfg.Incremental {
		st := w.Heap.Stats()
		if !w.incActive && w.cfg.GCDivisor > 0 &&
			st.BytesSinceGC > uint64(st.HeapBytes/w.cfg.GCDivisor) {
			w.allocTrigger(2)
			w.stwStartIncremental()
		}
		if w.incActive && w.incrementalStepLocked(w.cfg.MarkQuantum) {
			w.stwFinishIncremental()
			w.expandIfTight()
		}
	} else if w.cfg.Generational && w.cfg.MinorDivisor > 0 &&
		w.Heap.Stats().BytesSinceGC > uint64(w.Heap.Stats().HeapBytes/w.cfg.MinorDivisor) {
		if w.minorsSinceFull >= w.cfg.FullEvery-1 {
			w.allocTrigger(0)
			w.stwCollect()
			w.expandIfTight()
		} else {
			w.allocTrigger(1)
			w.stwCollectMinor()
		}
	} else if w.cfg.GCDivisor > 0 &&
		w.Heap.Stats().BytesSinceGC > uint64(w.Heap.Stats().HeapBytes/w.cfg.GCDivisor) {
		w.allocTrigger(0)
		w.stwCollect()
		w.expandIfTight()
	}
	p, err := try()
	if err == alloc.ErrNeedMemory {
		if w.concActive {
			// Complete the in-flight concurrent cycle: its finale sweeps.
			w.stwFinishConcurrent()
			p, err = try()
		} else if w.incActive {
			// Complete the in-flight incremental cycle: it will sweep.
			w.stwFinishIncremental()
			p, err = try()
		}
	}
	if err == alloc.ErrNeedMemory {
		// Collect only if enough allocation has happened since the last
		// cycle to make one worthwhile; otherwise the heap is simply too
		// small for the live data and must grow (the real collector's
		// GC_collect_or_expand makes the same distinction).
		st := w.Heap.Stats()
		if st.BytesSinceGC > uint64(st.HeapBytes/8) {
			w.stwCollect()
			p, err = try()
		}
	}
	for err == alloc.ErrNeedMemory {
		grow := nwords * mem.WordBytes
		if amortized := w.Heap.Stats().HeapBytes / 8; grow < amortized {
			grow = amortized
		}
		var eerr error
		w.lockHeapLocked(func() { eerr = w.Heap.Expand(grow) })
		if eerr != nil {
			if w.cfg.DesperateFallback && desperate != nil {
				if p, derr := desperate(); derr == nil {
					return p, nil
				}
			}
			return 0, fmt.Errorf("allocating %d words: %w", nwords, eerr)
		}
		p, err = try()
	}
	if err != nil {
		return 0, err
	}
	if w.concActive {
		// Born black: the fresh object is zero-filled, so there is
		// nothing to scan at birth, and the mark bit keeps this cycle's
		// sweep off it. Later stores into it are caught by the write
		// barrier like stores into any other black object. Against
		// detached workers the bit must be set with the same CAS they
		// race on.
		if w.concDetached {
			w.Heap.MarkAtomic(p)
		} else {
			w.Heap.Mark(p)
		}
	}
	if w.cfg.AllocatorResidue {
		if rs, ok := src.(residueSimulator); ok {
			rs.SimulateCallResidue(w.cfg.AllocatorSelfClean, mem.Word(p), mem.Word(nwords))
		}
	}
	return p, nil
}

// allocTrigger records an allocation crossing the collection
// threshold, immediately before the cycle it triggers; kind is the
// cycle-kind argument (0 full, 1 minor, 2 incremental start, 3
// concurrent full, 4 concurrent minor).
func (w *World) allocTrigger(kind int64) {
	w.met.allocTriggered.Inc()
	if w.tracer.Enabled() {
		st := w.Heap.Stats()
		w.tracer.Emit(trace.EvAllocTrigger, int64(st.BytesSinceGC), int64(st.HeapBytes), kind)
	}
}

// expandIfTight grows the heap when a collection left too little free
// space, per the FreeSpaceDivisor policy.
func (w *World) expandIfTight() {
	st := w.Heap.Stats()
	free := uint64(st.HeapBytes) - st.BytesLive
	if free < uint64(st.HeapBytes/w.cfg.FreeSpaceDivisor) && w.Heap.CanExpand() {
		w.Heap.Expand(st.HeapBytes / 2)
	}
}

// markRoots performs the root-scanning half of a collection: the
// attached root source, each stopped mutator's registers and simulated
// stack, then the root segments. Callers hold w.mu with every mutator
// stopped, so the sources are quiescent.
func (w *World) markRoots() {
	if w.mut != nil {
		w.Marker.MarkSparseRoots(mark.RootOrigin{Kind: mark.RootRegister, Src: -1}, w.mut.Registers())
		stackWords, stackBase := w.mut.LiveStack()
		w.Marker.MarkRootArea(mark.RootOrigin{Kind: mark.RootStack, Src: -1, Base: stackBase}, stackWords)
	}
	for i, m := range w.muts {
		if m.src == nil {
			continue
		}
		w.Marker.MarkSparseRoots(mark.RootOrigin{Kind: mark.RootRegister, Src: int32(i)}, m.src.Registers())
		stackWords, stackBase := m.src.LiveStack()
		w.Marker.MarkRootArea(mark.RootOrigin{Kind: mark.RootStack, Src: int32(i), Base: stackBase}, stackWords)
	}
	for i, s := range w.Space.Roots() {
		w.Marker.MarkRootArea(mark.RootOrigin{Kind: mark.RootSegment, Src: int32(i), Base: s.Base()}, s.Words())
	}
}

// markPhase runs one stop-the-world mark phase — serial through
// w.Marker, or sharded across w.par's workers when MarkWorkers > 1 —
// and returns its statistics plus the dirty-block count (minor cycles
// only). Parallel cycles mark exactly the serial object set: the CAS
// on each mark bit admits one winner, so ObjectsMarked, BytesMarked
// and the blacklisted pages match the serial run bit for bit.
func (w *World) markPhase(minor bool) (mark.Stats, int) {
	dirty := 0
	workers := w.effectiveMarkWorkers()
	w.lastMarkWorkers = workers
	if workers <= 1 {
		w.Marker.Reset()
		if w.prov.enabled {
			w.Marker.StartRecording()
		}
		if minor {
			// Rescan old objects on dirty pages first: at this point
			// every marked object is old, so the scan is exactly the
			// remembered set.
			w.Heap.DirtyBlocks(func(bi int) {
				dirty++
				w.Heap.ForEachMarkedObject(bi, w.Marker.ScanObject)
			})
		}
		w.markRoots()
		w.Marker.Drain()
		return w.Marker.Stats(), dirty
	}
	w.ensureParLocked(workers)
	if w.prov.enabled {
		w.par.StartRecording()
	}
	if minor {
		w.Heap.DirtyBlocks(func(bi int) {
			dirty++
			w.par.AddDirtyBlock(bi)
		})
	}
	if w.mut != nil {
		w.par.AddSparseRootsOrigin(mark.RootOrigin{Kind: mark.RootRegister, Src: -1}, w.mut.Registers())
		stackWords, stackBase := w.mut.LiveStack()
		w.par.AddRootsOrigin(mark.RootOrigin{Kind: mark.RootStack, Src: -1, Base: stackBase}, stackWords)
	}
	for i, m := range w.muts {
		if m.src == nil {
			continue
		}
		w.par.AddSparseRootsOrigin(mark.RootOrigin{Kind: mark.RootRegister, Src: int32(i)}, m.src.Registers())
		stackWords, stackBase := m.src.LiveStack()
		w.par.AddRootsOrigin(mark.RootOrigin{Kind: mark.RootStack, Src: int32(i), Base: stackBase}, stackWords)
	}
	for i, s := range w.Space.Roots() {
		w.par.AddRootsOrigin(mark.RootOrigin{Kind: mark.RootSegment, Src: int32(i), Base: s.Base()}, s.Words())
	}
	return w.par.Run(), dirty
}

// ensureParLocked (re)builds the sharded marker at the given width.
// Rebuilding happens when the adaptive selection changed its mind (the
// live heap crossed a band, or GOMAXPROCS moved); steal counters start
// over with the new marker.
func (w *World) ensureParLocked(workers int) {
	if w.par == nil || w.parWorkers != workers {
		w.par = mark.NewParallel(w.Heap, w.mcfg, workers)
		w.parWorkers = workers
		w.prevSteals = 0
		w.par.SetTracer(w.tracer)
	}
}

// Collect runs a full stop-the-world collection: park every mutator
// handle at its next allocation point and flush its caches, then mark
// from registers, live stacks and root segments; drain; handle
// finalisable objects; sweep; age the blacklist.
func (w *World) Collect() CollectionStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stwCollect()
}

// stwCollect stops the mutators and runs a full collection. Callers
// hold w.mu.
func (w *World) stwCollect() CollectionStats {
	w.stopMutatorsLocked()
	defer w.resumeMutatorsLocked()
	return w.collectLocked()
}

// collectLocked is the full collection body. Callers hold w.mu with
// every mutator stopped and flushed: the sweep classifies blocks from
// their bitmaps, so a cached (allocated-but-unreachable) slot that was
// not flushed back to its free list would be reclaimed and then carved
// a second time.
func (w *World) collectLocked() CollectionStats {
	if w.incActive {
		// A full collection supersedes the in-flight incremental cycle.
		return w.finishIncrementalLocked()
	}
	if w.concActive {
		// Likewise for an in-flight concurrent cycle: run its finale now.
		return w.finishConcurrentLocked()
	}
	start := time.Now()
	w.tracer.Emit(trace.EvCycleBegin, int64(w.collections+1), int64(w.Heap.Stats().HeapBytes), 0)
	// Any sweep work the previous lazy cycle deferred must complete
	// before mark bits change: a pending block's bits still encode that
	// cycle's liveness. No-op with LazySweep off.
	w.Heap.FinishSweep()
	// Central bump spans hold carved-but-unissued slots whose alloc bits
	// would read as live objects; return them before any bit changes.
	w.Heap.FlushSpans()
	w.Blacklist.BeginCycle()
	if w.cfg.Generational {
		// Mark bits are sticky between minor cycles; a full collection
		// starts from a clean slate.
		w.Heap.ClearMarks()
	}
	w.tracer.Emit(trace.EvMarkBegin, int64(w.collections+1), int64(w.effectiveMarkWorkers()), 0)
	markStart := time.Now()
	mstats, _ := w.markPhase(false)
	pauseMark := time.Since(markStart)
	w.traceMarkEnd(mstats)
	// Finalisation, as used by the paper's PCR experiment: "selected
	// otherwise unreachable heap cells to be enqueued for further
	// action". Unmarked registered objects are queued before the sweep
	// frees them.
	for a := range w.finalizable {
		if !w.Heap.Marked(a) {
			w.reclaimed = append(w.reclaimed, a)
			delete(w.finalizable, a)
		}
	}
	w.traceSweepBegin(0)
	sweepStart := time.Now()
	var sweep alloc.SweepResult
	if w.cfg.Generational {
		// Survivors of a full cycle keep their mark bits: they are the
		// old generation. The bits were cleared at the top of this
		// collection, so they reflect exactly this cycle's liveness.
		sweep = w.Heap.SweepSticky()
	} else {
		sweep = w.Heap.Sweep()
	}
	pauseSweep := time.Since(sweepStart)
	w.Heap.ResetSinceGC()
	if w.cfg.ExpireAge > 0 {
		w.Blacklist.Expire(w.cfg.ExpireAge)
	}
	w.collections++
	w.minorsSinceFull = 0
	w.Heap.ClearDirty()
	provRecs := w.harvestProvenance(0)
	w.last = CollectionStats{
		Mark:                mstats,
		Sweep:               sweep,
		Blacklist:           w.Blacklist.Stats(),
		Duration:            time.Since(start),
		HeapBytes:           w.Heap.Stats().HeapBytes,
		PauseMarkNs:         pauseMark.Nanoseconds(),
		PauseSweepNs:        pauseSweep.Nanoseconds(),
		PauseStopNs:         w.lastStopNs,
		SweepDeferredBlocks: w.Heap.SweepPending(),
		Provenance:          w.prov.enabled,
		ProvenanceRecords:   provRecs,
	}
	w.traceCycleEnd(w.last)
	w.fireHook()
	return w.last
}

// traceMarkEnd emits the mark-phase closing events: the phase totals
// plus, under parallel marking, each worker's share.
func (w *World) traceMarkEnd(mstats mark.Stats) {
	if !w.tracer.Enabled() {
		return
	}
	w.tracer.Emit(trace.EvMarkEnd,
		int64(mstats.ObjectsMarked), int64(mstats.BytesMarked), int64(mstats.WordsScanned))
	if w.par != nil {
		w.par.EachWorkerStats(func(i int, s mark.Stats) {
			w.tracer.Emit(trace.EvWorkerMark, int64(i), int64(s.ObjectsMarked), int64(s.BytesMarked))
		})
	}
}

// traceSweepBegin emits the sweep-phase opening event.
func (w *World) traceSweepBegin(kind int64) {
	if !w.tracer.Enabled() {
		return
	}
	lazy := int64(0)
	if w.cfg.LazySweep {
		lazy = 1
	}
	w.tracer.Emit(trace.EvSweepBegin, int64(w.collections+1), lazy, kind)
}

// traceCycleEnd emits the sweep-phase and cycle closing events.
func (w *World) traceCycleEnd(st CollectionStats) {
	if !w.tracer.Enabled() {
		return
	}
	w.tracer.Emit(trace.EvSweepEnd,
		int64(st.Sweep.ObjectsFreed), int64(st.Sweep.BytesFreed), int64(st.SweepDeferredBlocks))
	w.tracer.Emit(trace.EvCycleEnd,
		int64(w.collections), int64(st.Sweep.ObjectsLive), int64(st.Sweep.BytesLive))
}

// CollectMinor runs a generational minor collection: old (marked)
// objects on pages written since the last collection are rescanned for
// old-to-young pointers, the roots are scanned as usual, and the sweep
// preserves mark bits, so every young survivor is promoted to the old
// generation (the sticky-mark-bit scheme of the paper's reference
// [13]). Outside generational mode it behaves like Collect.
func (w *World) CollectMinor() CollectionStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stwCollectMinor()
}

// stwCollectMinor stops the mutators and runs a minor collection.
// Callers hold w.mu.
func (w *World) stwCollectMinor() CollectionStats {
	w.stopMutatorsLocked()
	defer w.resumeMutatorsLocked()
	return w.collectMinorLocked()
}

// collectMinorLocked is the minor collection body. Callers hold w.mu
// with every mutator stopped and flushed (see collectLocked).
func (w *World) collectMinorLocked() CollectionStats {
	if !w.cfg.Generational {
		return w.collectLocked()
	}
	if w.concActive {
		// An explicit collection completes the in-flight concurrent cycle.
		return w.finishConcurrentLocked()
	}
	start := time.Now()
	w.tracer.Emit(trace.EvCycleBegin, int64(w.collections+1), int64(w.Heap.Stats().HeapBytes), 1)
	// See Collect: the previous cycle's deferred sweeps must land before
	// this cycle's marks, and central bump spans must be returned.
	w.Heap.FinishSweep()
	w.Heap.FlushSpans()
	w.Blacklist.BeginCycle()
	w.tracer.Emit(trace.EvMarkBegin, int64(w.collections+1), int64(w.effectiveMarkWorkers()), 1)
	markStart := time.Now()
	mstats, dirty := w.markPhase(true)
	pauseMark := time.Since(markStart)
	w.traceMarkEnd(mstats)
	for a := range w.finalizable {
		if !w.Heap.Marked(a) {
			w.reclaimed = append(w.reclaimed, a)
			delete(w.finalizable, a)
		}
	}
	w.traceSweepBegin(1)
	sweepStart := time.Now()
	sweep := w.Heap.SweepSticky()
	pauseSweep := time.Since(sweepStart)
	w.Heap.ResetSinceGC()
	w.Heap.ClearDirty()
	if w.cfg.ExpireAge > 0 {
		w.Blacklist.Expire(w.cfg.ExpireAge)
	}
	w.collections++
	w.minorsSinceFull++
	provRecs := w.harvestProvenance(1)
	w.last = CollectionStats{
		Mark:                mstats,
		Sweep:               sweep,
		Blacklist:           w.Blacklist.Stats(),
		Duration:            time.Since(start),
		HeapBytes:           w.Heap.Stats().HeapBytes,
		Minor:               true,
		DirtyBlocks:         dirty,
		Promoted:            mstats.ObjectsMarked,
		PauseMarkNs:         pauseMark.Nanoseconds(),
		PauseSweepNs:        pauseSweep.Nanoseconds(),
		PauseStopNs:         w.lastStopNs,
		SweepDeferredBlocks: w.Heap.SweepPending(),
		Provenance:          w.prov.enabled,
		ProvenanceRecords:   provRecs,
	}
	w.traceCycleEnd(w.last)
	w.fireHook()
	return w.last
}

// MarkOnly marks from the roots and returns the apparently-accessible
// object count and bytes, then clears the marks without sweeping. The
// paper's section 3.1 reports exactly this quantity ("apparently
// accessible cons-cells").
func (w *World) MarkOnly() (objects, bytes uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.stopMutatorsLocked()
	defer w.resumeMutatorsLocked()
	if w.incActive {
		// Mark-only measurement would clobber the in-flight cycle's
		// mark bits; complete the cycle first.
		w.finishIncrementalLocked()
	}
	if w.concActive {
		w.finishConcurrentLocked()
	}
	w.Heap.FinishSweep() // pending bits are the previous cycle's, not this one's
	w.Heap.FlushSpans()  // carved-but-unissued span slots are not accessible objects
	w.tracer.Emit(trace.EvMarkBegin, int64(w.collections+1), int64(w.effectiveMarkWorkers()), 0)
	mstats, _ := w.markPhase(false)
	w.traceMarkEnd(mstats)
	objects, bytes = w.Heap.CountMarked()
	w.Heap.ClearMarks()
	// The measurement's marks are gone, so any provenance it recorded
	// describes nothing; drop it rather than harvesting.
	w.discardRecording()
	return objects, bytes
}

// Collections returns how many collections have run.
func (w *World) Collections() int { return w.collections }

// LastCollection returns statistics for the most recent collection.
func (w *World) LastCollection() CollectionStats { return w.last }

// RegisterFinalizable registers an object base address for reclamation
// tracking: when a collection finds it unreachable, it is queued and
// reported by DrainReclaimed.
func (w *World) RegisterFinalizable(a mem.Addr) { w.finalizable[a] = struct{}{} }

// FinishSweep completes any deferred (lazy) sweep work immediately and
// returns the number of blocks swept; a no-op with LazySweep off.
// Collections finish the remainder automatically before marking, so
// explicit calls are only needed by tests and measurements that must
// observe final reclamation state without running another cycle.
// Deferred sweeps rebuild free lists but never touch carved runs (a
// cached slot is never in a sweep-pending block), so mutators need not
// stop.
func (w *World) FinishSweep() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	w.lockHeapLocked(func() { n = w.Heap.FinishSweep() })
	return n
}

// DrainReclaimed returns and clears the queue of reclaimed registered
// objects.
func (w *World) DrainReclaimed() []mem.Addr {
	out := w.reclaimed
	w.reclaimed = nil
	return out
}

// Load reads a heap or segment word (convenience for workloads).
func (w *World) Load(a mem.Addr) (mem.Word, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.Space.Load(a)
}

// Store writes a heap or segment word (convenience for workloads). In
// generational mode it doubles as the write barrier: heap stores dirty
// their page, like the VM-dirty-bit barrier of the PCR collector.
func (w *World) Store(a mem.Addr, v mem.Word) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.storeLocked(a, v)
}

// storeLocked is the write barrier + store body; callers hold w.mu.
// During a concurrent cycle it is the Dijkstra-style insertion barrier
// at dirty-card granularity: the written-to block is re-greyed, so the
// finale (or an earlier rescan pass) re-scans its marked objects and
// finds whatever pointer this store published.
func (w *World) storeLocked(a mem.Addr, v mem.Word) error {
	if w.cfg.Generational || w.incActive || w.concActive {
		if w.Heap.MarkDirty(a) && w.concActive {
			w.met.barrierDirty.Inc()
			if w.tracer.Enabled() {
				w.tracer.Emit(trace.EvBarrierDirty, int64(a), int64(w.Heap.CountDirty()), 0)
			}
		}
	}
	return w.Space.Store(a, v)
}
