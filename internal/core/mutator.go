package core

import (
	"sync"
	"time"

	"repro/internal/alloc"
	"repro/internal/mem"
	"repro/internal/trace"
)

// Concurrent mutators. The paper's collector serves multi-threaded PCR
// programs — section 5 scans "all thread stacks" — and the original
// Boehm collector gives each thread free-list caches refilled in
// batches from the central size-class lists. The same design here:
//
//   - A Mutator handle holds one cached run of carved free slots per
//     (size class, atomic) pair. The common allocation is a pointer
//     bump along the run under the handle's own mutex: no central
//     lock, no heap-memory access at all (carve time already zeroed
//     the link word), so concurrent mutators never contend.
//   - The slow path — an empty cache, a large or typed object, heap
//     expansion, any collection — takes the world's central lock and
//     runs the original single-threaded code, with the cache refilled
//     by one batched alloc.AllocRun carve.
//   - Collections stop the world: stopMutatorsLocked parks every
//     handle at its next allocation point (by acquiring its mutex),
//     flushes its caches back to the free lists, and publishes its
//     locally-counted allocation stats. The sweep that follows
//     classifies blocks from their bitmaps, so an unflushed cached
//     slot — allocated bits set, reachable from nothing — would be
//     reclaimed and later carved a second time; flushing first is what
//     makes the caches invisible to every collector mode (full,
//     generational, incremental, parallel, lazy).
//
// Single-mutator equivalence. With one handle, every address and every
// CollectionStats is bit-for-bit what the direct World entry points
// produce (asserted by TestMutatorDifferential): AllocRun pops the
// same slots in the same order per-object allocation would, ReturnRun
// restores the untouched tail exactly, stats are published before any
// point that reads them, and the fast path diverts to the slow path at
// precisely the allocation where the direct path would trigger a
// collection — the handle mirrors the central BytesSinceGC trigger in
// sinceGC/trigger, resynchronised after every slow path.

// runSlots is how many free slots one batched refill carves. Refills
// happen under the central lock, so the value trades contention (small
// runs lock often) against flush latency and cache-held memory (large
// runs strand more slots at a safepoint). It never affects allocation
// addresses: carved runs hand out exactly the slots the central list
// would have.
const runSlots = 32

// allocCache is one size class's cached run: run[next:] are the carved
// slots not yet handed out. Under Config.LineAlloc the cache holds a
// bump span instead — [cursor, limit) in steps of the object size —
// and run stays empty; the two forms never coexist in one cache.
// words is the class's padded object size, recorded at refill for
// local byte accounting and for returning the tail to the right list.
type allocCache struct {
	run           []mem.Addr
	next          int
	words         int
	cursor, limit mem.Addr
}

// MutatorStats counts one handle's allocation activity.
type MutatorStats struct {
	// FastAllocs is how many allocations were served from a cached run
	// without taking the central lock.
	FastAllocs uint64
	// SlowAllocs is how many allocations took the central lock: cache
	// refills, large/typed objects, incremental-mode allocations, and
	// collection-trigger diversions.
	SlowAllocs uint64
	// Refills counts batched cache refills; RunSlots the slots they
	// carved.
	Refills  uint64
	RunSlots uint64
	// FlushedSlots counts unconsumed cached slots returned to the
	// central free lists by safepoint flushes.
	FlushedSlots uint64
}

// Mutator is one allocating goroutine's handle onto a World. Create
// one per goroutine with World.NewMutator; a handle must not be shared
// between goroutines (the collector may use any goroutine's handle —
// that is what the safepoint protocol synchronises — but each handle
// has at most one owner issuing calls on it).
//
// All methods are safe to call while other mutators allocate and
// collect concurrently.
type Mutator struct {
	w *World
	// src is the simulated machine scanned as this mutator's roots
	// (nil for a pure allocation handle). Guarded by both w.mu and
	// m.mu: the fast path reads it under m.mu; root scans read it
	// under w.mu with the mutator stopped.
	src RootSource
	// ten is the tenant this handle charges (nil for an untenanted
	// handle; see tenant.go). Immutable after creation, so both the
	// fast path (under m.mu) and the slow path (under w.mu) read it
	// without further coordination.
	ten *Tenant

	// mu makes the owner goroutine's fast path visible to the
	// safepoint protocol: stopMutatorsLocked acquires it (after w.mu —
	// always that order) to park the mutator at an allocation
	// boundary. The fast path holds it alone; the slow path holds only
	// w.mu, which is safe because every other-goroutine access to this
	// struct holds w.mu too.
	mu     sync.Mutex
	caches []allocCache
	// unpubObjects/unpubBytes count fast-path allocations not yet
	// folded into the central allocator stats; published (under w.mu)
	// at every slow path and safepoint, so the stats are exact at
	// every point the collector reads them.
	unpubObjects uint64
	unpubBytes   uint64
	// sinceGC mirrors the central BytesSinceGC as of the last slow
	// path, advanced locally by fast-path consumption; trigger is the
	// byte threshold at which the world would start a collection
	// (hasTrigger false: none — incremental mode diverts every
	// allocation instead). When sinceGC crosses trigger the fast path
	// diverts to the slow path, which re-evaluates the trigger
	// centrally — with one mutator this reproduces the direct path's
	// collection points exactly; with several it is a slightly stale
	// heuristic that the next refill corrects.
	sinceGC    uint64
	trigger    uint64
	hasTrigger bool
	stats      MutatorStats
}

// NewMutator registers and returns a new mutator handle. Handles are
// permanent: they stay registered (and their stacks stay roots) for
// the world's lifetime.
func (w *World) NewMutator() *Mutator { return w.newMutator(nil) }

// newMutator is the shared body of World.NewMutator and
// Tenant.NewMutator: t non-nil binds the handle to that tenant.
func (w *World) newMutator(t *Tenant) *Mutator {
	m := &Mutator{w: w, ten: t, caches: make([]allocCache, 2*alloc.NumClasses)}
	w.mu.Lock()
	w.muts = append(w.muts, m)
	if t != nil {
		t.muts = append(t.muts, m)
	}
	m.resyncLocked()
	w.met.mutators.Set(int64(len(w.muts)))
	w.mu.Unlock()
	return m
}

// SetRootSource attaches the simulated machine whose registers and
// stack are scanned as this mutator's roots (nil detaches).
func (m *Mutator) SetRootSource(src RootSource) {
	m.w.mu.Lock()
	m.mu.Lock()
	m.src = src
	m.mu.Unlock()
	m.w.mu.Unlock()
}

// RootSource returns the attached machine (possibly nil).
func (m *Mutator) RootSource() RootSource { return m.src }

// Allocate allocates an object of nwords words, like World.Allocate.
// Small objects are usually served from the handle's cached run
// without touching the central lock.
func (m *Mutator) Allocate(nwords int, atomic bool) (mem.Addr, error) {
	return m.allocate(nwords, atomic, nil, 0)
}

// AllocateRooted allocates like Allocate and stores the new object's
// address at dst[at] before returning — atomically with respect to
// safepoints, so there is no window in which the object exists but no
// root reaches it. This is the simulated equivalent of an allocation
// whose result lands directly in a register or rooted stack slot;
// concurrent drivers need it to keep objects provably live (a root
// written after Allocate returns could come too late: another
// mutator's collection may already have reclaimed the object).
//
// dst must be a mapped non-heap segment (typically a root data
// segment) and the slot at `at` must be owned by this mutator's
// goroutine. Root segments are rescanned in full by every collector
// mode, so the store needs no write barrier.
func (m *Mutator) AllocateRooted(dst *mem.Segment, at mem.Addr, nwords int, atomic bool) (mem.Addr, error) {
	return m.allocate(nwords, atomic, dst, at)
}

// allocate is the shared body of Allocate and AllocateRooted: dst nil
// means no rooting store.
func (m *Mutator) allocate(nwords int, atomic bool, dst *mem.Segment, at mem.Addr) (mem.Addr, error) {
	m.mu.Lock()
	if m.src != nil {
		m.src.OnAllocate()
	}
	if nwords >= 1 && !alloc.IsLarge(nwords) && !m.w.cfg.Incremental {
		class, words := alloc.ClassFor(nwords)
		idx := class
		if atomic {
			idx += alloc.NumClasses
		}
		c := &m.caches[idx]
		// Divert to the slow path at the allocation where the central
		// trigger would fire: the collection must happen now, not when
		// the cache next empties. A tenant handle also charges its
		// budget here with one CAS — a failed charge (or a cancelled
		// tenant) diverts to the slow path, which resolves the
		// over-budget policy under the central lock.
		fromSpan := c.cursor < c.limit
		bytes := uint64(words) * mem.WordBytes
		if (fromSpan || c.next < len(c.run)) && !(m.hasTrigger && m.sinceGC > m.trigger) &&
			(m.ten == nil || m.ten.fastCharge(bytes)) {
			p := c.cursor // line profile: bump the cached span's cursor
			if !fromSpan {
				p = c.run[c.next]
			}
			// Root before consuming: m.mu is held, so no safepoint can
			// intervene between the store and the hand-out. The store
			// touches only the caller's own segment slot, never shared
			// heap structures (see the fast-path rules above).
			if dst != nil {
				if err := dst.Store(at, mem.Word(p)); err != nil {
					if m.ten != nil && m.ten.budgeted() {
						m.ten.uncharge(bytes)
					}
					m.mu.Unlock()
					return 0, err
				}
			}
			if fromSpan {
				c.cursor += mem.Addr(words * mem.WordBytes)
			} else {
				c.next++
			}
			m.sinceGC += bytes
			m.unpubObjects++
			m.unpubBytes += bytes
			if m.ten != nil {
				m.ten.noteAlloc(bytes)
			}
			m.stats.FastAllocs++
			if m.w.cfg.AllocatorResidue {
				if rs, ok := m.src.(residueSimulator); ok {
					rs.SimulateCallResidue(m.w.cfg.AllocatorSelfClean, mem.Word(p), mem.Word(nwords))
				}
			}
			m.mu.Unlock()
			return p, nil
		}
	}
	m.mu.Unlock()
	return m.allocateSlow(nwords, atomic, dst, at)
}

// allocateSlow is every allocation that needs the central lock. The
// owner goroutine holds no locks on entry (never m.mu — a collection
// triggered here re-acquires it through the safepoint protocol).
func (m *Mutator) allocateSlow(nwords int, atomic bool, dst *mem.Segment, at mem.Addr) (mem.Addr, error) {
	w := m.w
	w.mu.Lock()
	defer w.mu.Unlock()
	m.publishLocked()
	defer m.resyncLocked()
	m.stats.SlowAllocs++

	// Tenant accounting: resolve cancellation and the budget before
	// touching the heap — an over-budget allocation runs the tenant's
	// policy (tenant.go) and may collect, evict, or deny right here.
	// The charge is undone if the allocation below fails.
	var tenCharge uint64
	if t := m.ten; t != nil {
		tenCharge = tenantChargeBytes(nwords)
		if terr := w.tenantChargeLocked(t, tenCharge); terr != nil {
			return 0, terr
		}
	}

	var p mem.Addr
	var err error
	if nwords >= 1 && !alloc.IsLarge(nwords) && !w.cfg.Incremental {
		class, words := alloc.ClassFor(nwords)
		idx := class
		if atomic {
			idx += alloc.NumClasses
		}
		// Return any cached remainder first: the batched carve must
		// start from exactly the free-list state per-object allocation
		// would see (the cache may be non-empty on a trigger diversion).
		m.returnCacheLocked(idx)
		c := &m.caches[idx]
		carved := false
		var try func() (mem.Addr, error)
		if w.cfg.LineAlloc {
			try = func() (mem.Addr, error) {
				// Line profile: carve one bump span over a run of free
				// lines and consume its first slot; the rest is the
				// fast path's [cursor, limit).
				s, err := w.Heap.AllocSpan(nwords, atomic)
				if err != nil {
					return 0, err
				}
				slotBytes := mem.Addr(words * mem.WordBytes)
				c.cursor = s.Cursor + slotBytes
				c.limit = s.Limit
				carved = true
				if w.concActive {
					// Born black: a concurrent cycle is marking while this
					// span sits in the cache, and the finale must not sweep
					// slots the fast path hands out after the snapshot.
					// Carved slots are zeroed, so marking without scanning
					// is sound; ReturnSpan unmarks whatever the flush gives
					// back.
					for p := s.Cursor; p < s.Limit; p += slotBytes {
						w.Heap.Mark(p)
					}
				}
				m.recordSpanRefillLocked(idx, int((s.Limit-s.Cursor)/slotBytes), words)
				return s.Cursor, nil
			}
		} else {
			try = func() (mem.Addr, error) {
				run, err := w.Heap.AllocRun(nwords, atomic, runSlots, c.run[:0])
				if err != nil {
					return 0, err
				}
				c.run = run
				c.next = 1
				carved = true
				if w.concActive {
					// Born black (see the span carve above): carved slots
					// are zeroed, so the finale's sweep must not reclaim
					// what the fast path hands out mid-cycle; ReturnRun
					// unmarks the flushed remainder.
					for _, s := range run {
						w.Heap.Mark(s)
					}
				}
				m.recordRefillLocked(idx, len(run), words)
				return run[0], nil
			}
		}
		desperate := func() (mem.Addr, error) {
			carved = false
			c.run = c.run[:0]
			c.next = 0
			c.cursor, c.limit = 0, 0
			return w.Heap.AllocDesperate(nwords, atomic)
		}
		p, err = w.allocateLocked(nwords, m.src, try, desperate)
		if err == nil && carved {
			// AllocRun defers stats to consumption; run[0] was just
			// handed out.
			w.Heap.CommitAllocs(1, uint64(words)*mem.WordBytes)
			if m.ten != nil && m.ten.budgeted() {
				// The fast path hands the cached slots out charged but
				// lock-free, so they are tagged now; a flush untags the
				// ones that return unconsumed.
				for _, s := range c.run[c.next:] {
					w.Heap.TagOwner(s, m.ten.id)
				}
				for s := c.cursor; s < c.limit; s += mem.Addr(words * mem.WordBytes) {
					w.Heap.TagOwner(s, m.ten.id)
				}
			}
		}
	} else {
		// Large objects, and every allocation in incremental mode
		// (whose bounded marking steps piggyback on each allocation):
		// the original per-object path, uncached.
		p, err = w.allocateLocked(nwords, m.src,
			func() (mem.Addr, error) { return w.Heap.Alloc(nwords, atomic) },
			func() (mem.Addr, error) { return w.Heap.AllocDesperate(nwords, atomic) })
	}
	if err != nil {
		if t := m.ten; t != nil && t.budgeted() && tenCharge > 0 {
			t.uncharge(tenCharge)
		}
		return 0, err
	}
	if t := m.ten; t != nil {
		t.noteAlloc(tenCharge)
		if t.budgeted() {
			w.Heap.TagOwner(p, t.id)
		}
	}
	if dst != nil {
		// Root while still holding w.mu: no collection can run before
		// the store lands. storeLocked keeps the write barrier exact for
		// in-flight incremental cycles.
		if serr := w.storeLocked(at, mem.Word(p)); serr != nil {
			return 0, serr
		}
	}
	return p, nil
}

// AllocateTyped allocates an object with exact layout information,
// like World.AllocateTyped. Typed allocation always takes the central
// lock: its free lists are shared per (class, descriptor).
func (m *Mutator) AllocateTyped(id alloc.DescID) (mem.Addr, error) {
	w := m.w
	w.mu.Lock()
	defer w.mu.Unlock()
	d, err := w.Heap.Descriptor(id)
	if err != nil {
		return 0, err
	}
	if m.src != nil {
		m.src.OnAllocate()
	}
	m.publishLocked()
	defer m.resyncLocked()
	m.stats.SlowAllocs++
	var tenCharge uint64
	if t := m.ten; t != nil {
		tenCharge = tenantChargeBytes(d.Words)
		if terr := w.tenantChargeLocked(t, tenCharge); terr != nil {
			return 0, terr
		}
	}
	p, err := w.allocateLocked(d.Words, m.src,
		func() (mem.Addr, error) { return w.Heap.AllocTyped(id) },
		nil)
	m.settleTenantLocked(p, err, tenCharge)
	return p, err
}

// AllocateIgnoreOffPage allocates a large object under the first-page
// promise, like World.AllocateIgnoreOffPage.
func (m *Mutator) AllocateIgnoreOffPage(nwords int, atomic bool) (mem.Addr, error) {
	w := m.w
	w.mu.Lock()
	defer w.mu.Unlock()
	if m.src != nil {
		m.src.OnAllocate()
	}
	m.publishLocked()
	defer m.resyncLocked()
	m.stats.SlowAllocs++
	var tenCharge uint64
	if t := m.ten; t != nil {
		tenCharge = tenantChargeBytes(nwords)
		if terr := w.tenantChargeLocked(t, tenCharge); terr != nil {
			return 0, terr
		}
	}
	p, err := w.allocateLocked(nwords, m.src,
		func() (mem.Addr, error) { return w.Heap.AllocIgnoreOffPage(nwords, atomic) },
		nil)
	m.settleTenantLocked(p, err, tenCharge)
	return p, err
}

// settleTenantLocked finishes an uncached tenant allocation: uncharge
// on failure, count and tag on success. Callers hold w.mu and have
// charged tenCharge via tenantChargeLocked.
func (m *Mutator) settleTenantLocked(p mem.Addr, err error, tenCharge uint64) {
	t := m.ten
	if t == nil {
		return
	}
	if err != nil {
		if t.budgeted() && tenCharge > 0 {
			t.uncharge(tenCharge)
		}
		return
	}
	t.noteAlloc(tenCharge)
	if t.budgeted() {
		m.w.Heap.TagOwner(p, t.id)
	}
}

// Free explicitly frees an object, like Allocator.Free. The handle's
// caches flush first so the freed slot lands on top of exactly the
// list per-object allocation would have left — the next allocation of
// its class returns it, as in single-threaded use.
func (m *Mutator) Free(base mem.Addr) error {
	w := m.w
	w.mu.Lock()
	defer w.mu.Unlock()
	m.flushLocked()
	defer m.resyncLocked()
	// An explicit free credits the owning tenant immediately, through
	// the allocator's owner-credit callback.
	var err error
	w.lockHeapLocked(func() { err = w.Heap.Free(base) })
	return err
}

// Store writes a heap or segment word through the write barrier, like
// World.Store.
func (m *Mutator) Store(a mem.Addr, v mem.Word) error {
	m.w.mu.Lock()
	defer m.w.mu.Unlock()
	return m.w.storeLocked(a, v)
}

// Load reads a heap or segment word, like World.Load.
func (m *Mutator) Load(a mem.Addr) (mem.Word, error) {
	m.w.mu.Lock()
	defer m.w.mu.Unlock()
	return m.w.Space.Load(a)
}

// Collect runs a full collection, like World.Collect (which is equally
// safe to call from any goroutine; this is a convenience).
func (m *Mutator) Collect() CollectionStats {
	return m.w.Collect()
}

// CollectMinor runs a minor collection, like World.CollectMinor.
func (m *Mutator) CollectMinor() CollectionStats {
	return m.w.CollectMinor()
}

// Stats returns the handle's allocation counters.
func (m *Mutator) Stats() MutatorStats {
	m.w.mu.Lock()
	m.mu.Lock()
	st := m.stats
	m.mu.Unlock()
	m.w.mu.Unlock()
	return st
}

// publishLocked folds the fast path's locally-counted allocations into
// the central allocator stats. Callers hold w.mu (the owner goroutine
// additionally guarantees its own fast path is not running).
func (m *Mutator) publishLocked() {
	if m.unpubObjects != 0 || m.unpubBytes != 0 {
		m.w.Heap.CommitAllocs(m.unpubObjects, m.unpubBytes)
		m.unpubObjects, m.unpubBytes = 0, 0
	}
}

// resyncLocked re-mirrors the central trigger state after a slow path
// or safepoint: sinceGC restarts from the true central count, and
// trigger becomes the smallest threshold at which allocateLocked would
// start any collection. Callers hold w.mu.
func (m *Mutator) resyncLocked() {
	st := m.w.Heap.Stats()
	m.sinceGC = st.BytesSinceGC
	m.hasTrigger = false
	m.trigger = 0
	cfg := &m.w.cfg
	if cfg.Incremental {
		// Incremental mode never uses the fast path; no trigger needed.
		return
	}
	if m.w.concActive {
		// A concurrent cycle is in flight: BytesSinceGC keeps growing
		// until the finale resets it, so any trigger armed now would fire
		// on the very next fast-path allocation and divert every
		// allocation to the slow path for the rest of the cycle. The
		// barrier and born-black carves keep the fast path sound without
		// a trigger; the first slow path after the finale re-arms it.
		return
	}
	if cfg.Generational && cfg.MinorDivisor > 0 {
		m.hasTrigger = true
		m.trigger = uint64(st.HeapBytes / cfg.MinorDivisor)
		if cfg.GCDivisor > 0 {
			if t := uint64(st.HeapBytes / cfg.GCDivisor); t < m.trigger {
				m.trigger = t
			}
		}
	} else if cfg.GCDivisor > 0 {
		m.hasTrigger = true
		m.trigger = uint64(st.HeapBytes / cfg.GCDivisor)
	}
}

// returnCacheLocked flushes one class's cached remainder back to its
// central free list and empties the cache, returning how many slots
// went back. Callers hold w.mu.
func (m *Mutator) returnCacheLocked(idx int) int {
	c := &m.caches[idx]
	rest := len(c.run) - c.next
	if rest > 0 {
		// Free-list threading is a heap-structure mutation: exclude any
		// detached mark workers (bare call outside a detached phase).
		// ReturnRun also drops the tenant tags of the unconsumed slots,
		// which were never charged.
		m.w.lockHeapLocked(func() {
			m.w.Heap.ReturnRun(c.words, idx >= alloc.NumClasses, c.run[c.next:])
		})
	}
	c.run = c.run[:0]
	c.next = 0
	if c.cursor < c.limit {
		// Line profile: clear the span tail's alloc bits (and tenant
		// tags) and requeue its block, so the very next carve re-issues
		// the same cursor.
		m.w.lockHeapLocked(func() {
			rest += m.w.Heap.ReturnSpan(c.cursor, c.limit)
		})
	}
	c.cursor, c.limit = 0, 0
	return rest
}

// flushLocked publishes the handle's pending stats and returns every
// cached slot to the central free lists. Called under w.mu — by the
// safepoint protocol with m.mu also held, or by the owner goroutine's
// own slow path.
func (m *Mutator) flushLocked() int {
	m.publishLocked()
	flushed := 0
	for idx := range m.caches {
		flushed += m.returnCacheLocked(idx)
	}
	m.stats.FlushedSlots += uint64(flushed)
	return flushed
}

// recordRefillLocked notes one batched cache refill in the handle and
// world observability. Callers hold w.mu.
func (m *Mutator) recordRefillLocked(idx, n, words int) {
	c := &m.caches[idx]
	c.words = words
	m.stats.Refills++
	m.stats.RunSlots += uint64(n)
	w := m.w
	w.met.cacheRefills.Inc()
	w.met.cacheRefillSlots.Add(uint64(n))
	if w.tracer.Enabled() {
		w.tracer.Emit(trace.EvCacheRefill, int64(idx), int64(n), int64(words))
	}
}

// recordSpanRefillLocked notes one bump-span refill (Config.LineAlloc)
// in the handle and world observability. The trace event (EvSpanRefill)
// is emitted by the allocator's carve itself — a central-span hand-over
// re-issues an already-carved span, which must not double-count there.
// Callers hold w.mu.
func (m *Mutator) recordSpanRefillLocked(idx, n, words int) {
	c := &m.caches[idx]
	c.words = words
	m.stats.Refills++
	m.stats.RunSlots += uint64(n)
	m.w.met.spanRefills.Inc()
	m.w.met.spanRefillSlots.Add(uint64(n))
}

// stopMutatorsLocked is the stop-the-world safepoint: acquire every
// mutator's lock — parking each owner goroutine at its next allocation
// point — then flush every cache and publish every handle's stats, so
// the collector sees exact central state and bitmaps that classify
// every slot correctly. Callers hold w.mu; resumeMutatorsLocked must
// follow. With no handles registered this is free (single-threaded
// worlds pay nothing).
func (w *World) stopMutatorsLocked() {
	w.lastStopNs = 0
	if len(w.muts) == 0 {
		return
	}
	start := time.Now()
	flushed := 0
	for _, m := range w.muts {
		m.mu.Lock()
		flushed += m.flushLocked()
	}
	w.lastStopNs = time.Since(start).Nanoseconds()
	w.met.stwStops.Inc()
	w.met.stwPauseNs.Add(uint64(w.lastStopNs))
	w.met.stopHist.Record(uint64(w.lastStopNs))
	w.met.cacheFlushSlots.Add(uint64(flushed))
	if w.tracer.Enabled() {
		w.tracer.Emit(trace.EvSafepoint, int64(len(w.muts)), int64(flushed), w.lastStopNs)
	}
}

// resumeMutatorsLocked releases the mutators parked by
// stopMutatorsLocked, in reverse order.
func (w *World) resumeMutatorsLocked() {
	for i := len(w.muts) - 1; i >= 0; i-- {
		w.muts[i].mu.Unlock()
	}
}

// VerifyIntegrity stops every mutator WITHOUT flushing its caches and
// audits the allocator's slot accounting against them (no double-carve
// of any slot; conservation: live + cached + free slots account for
// every block — see alloc.CheckIntegrity). Not flushing is the point:
// the check must see the mid-flight cached state the concurrency
// battery wants validated.
func (w *World) VerifyIntegrity() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, m := range w.muts {
		m.mu.Lock()
	}
	var cached []mem.Addr
	for _, m := range w.muts {
		for idx := range m.caches {
			c := &m.caches[idx]
			cached = append(cached, c.run[c.next:]...)
			if c.cursor < c.limit {
				// Line profile: the cached span's unconsumed slots.
				for p, step := c.cursor, mem.Addr(c.words*mem.WordBytes); p < c.limit; p += step {
					cached = append(cached, p)
				}
			}
		}
	}
	// The audit walks every block's bitmaps; detached mark workers
	// flip mark bits and summaries concurrently, so exclude them for
	// the read (bare call outside a detached phase).
	var err error
	w.lockHeapLocked(func() { err = w.Heap.CheckIntegrity(cached) })
	for i := len(w.muts) - 1; i >= 0; i-- {
		w.muts[i].mu.Unlock()
	}
	return err
}
