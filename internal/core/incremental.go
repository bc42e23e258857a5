package core

import (
	"fmt"
	"time"

	"repro/internal/trace"
)

// Incremental collection, after the mostly-parallel design the paper
// cites as its pause-time companion (Boehm, Demers & Shenker, PLDI
// 1991 — the paper's reference [8]; the paper notes its own root-scan
// "time overhead involved in this could be largely eliminated by the
// techniques in [8]").
//
// A cycle starts with a snapshot root scan, then marking proceeds in
// bounded steps piggybacked on allocations while the mutator keeps
// running; writes during the cycle dirty the stored-into object. The
// short stop-the-world finale re-grays the marked objects stored into,
// rescans the (possibly changed) roots, drains, and sweeps. Objects
// allocated during the cycle are unmarked and therefore must be
// re-reached via the finale's root scan or a re-grayed object — which
// is exactly what the write barrier guarantees.

// StartIncrementalCycle begins an incremental collection. It is a
// no-op if a cycle is already active. Outside incremental mode it is
// an error.
func (w *World) StartIncrementalCycle() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stwStartIncremental()
}

// stwStartIncremental stops the mutators (the snapshot root scan must
// see quiescent stacks, and the FinishSweep barrier reclassifies
// blocks) and begins a cycle. Callers hold w.mu.
func (w *World) stwStartIncremental() error {
	if !w.cfg.Incremental {
		return fmt.Errorf("core: StartIncrementalCycle outside incremental mode")
	}
	if w.incActive {
		return nil
	}
	w.stopMutatorsLocked()
	defer w.resumeMutatorsLocked()
	w.tracer.Emit(trace.EvCycleBegin, int64(w.collections+1), int64(w.Heap.Stats().HeapBytes), 2)
	// Deferred lazy sweeps hold the previous cycle's liveness in their
	// mark bits; they must land before this cycle marks anything.
	w.Heap.FinishSweep()
	// Central bump spans (LineAlloc) hold carved-but-unissued slots
	// whose alloc bits would read as live objects; return them before
	// the cycle observes any bits.
	w.Heap.FlushSpans()
	w.Blacklist.BeginCycle()
	w.Marker.Reset()
	if w.prov.enabled {
		// Incremental cycles mark serially whatever MarkWorkers says, so
		// recording lives on the serial marker; the finale harvests it.
		w.Marker.StartRecording()
	}
	w.Heap.ClearDirty()
	w.markRoots()
	w.incActive = true
	return nil
}

// IncrementalActive reports whether a cycle is in progress.
func (w *World) IncrementalActive() bool { return w.incActive }

// IncrementalStep performs up to quantum objects of marking work,
// returning true when the mark stack is drained (the cycle is ready to
// finish).
func (w *World) IncrementalStep(quantum int) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.incrementalStepLocked(quantum)
}

// incrementalStepLocked is the marking-step body; callers hold w.mu.
// Steps only advance the mark stack — no sweep, no classification —
// so mutators keep running.
func (w *World) incrementalStepLocked(quantum int) bool {
	if !w.incActive {
		return true
	}
	if quantum <= 0 {
		quantum = 64
	}
	w.incSteps++
	done := w.Marker.DrainN(quantum)
	w.tracer.Emit(trace.EvIncStep, int64(w.incSteps), int64(w.Marker.Pending()), 0)
	return done
}

// FinishIncrementalCycle runs the stop-the-world finale: rescan the
// marked objects stored into during the concurrent phase and the
// current roots, drain, and sweep. Returns the cycle's statistics; the Duration field covers
// only the finale — the pause the mutator actually observes.
func (w *World) FinishIncrementalCycle() CollectionStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stwFinishIncremental()
}

// stwFinishIncremental stops the mutators and runs the finale.
// Callers hold w.mu.
func (w *World) stwFinishIncremental() CollectionStats {
	w.stopMutatorsLocked()
	defer w.resumeMutatorsLocked()
	return w.finishIncrementalLocked()
}

// finishIncrementalLocked is the finale body. Callers hold w.mu with
// every mutator stopped and flushed (the finale sweeps; see
// collectLocked).
func (w *World) finishIncrementalLocked() CollectionStats {
	if !w.incActive {
		return w.last
	}
	start := time.Now()
	w.tracer.Emit(trace.EvMarkBegin, int64(w.collections+1), 1, 2)
	_, rescanned := w.takeDirtyLocked(false)
	w.markRoots()
	w.Marker.Drain()
	pauseMark := time.Since(start)
	w.traceMarkEnd(w.Marker.Stats())
	for a := range w.finalizable {
		if !w.Heap.Marked(a) {
			w.reclaimed = append(w.reclaimed, a)
			delete(w.finalizable, a)
		}
	}
	w.traceSweepBegin(2)
	sweepStart := time.Now()
	// Spans carved since the cycle started hold unissued slots; return
	// them so the sweep's alloc-bit survey matches reality (returned
	// slots also drop any conservative mark they picked up mid-cycle).
	w.Heap.FlushSpans()
	sweep := w.Heap.Sweep()
	pauseSweep := time.Since(sweepStart)
	w.Heap.ResetSinceGC()
	w.Heap.ClearDirty()
	if w.cfg.ExpireAge > 0 {
		w.Blacklist.Expire(w.cfg.ExpireAge)
	}
	w.collections++
	w.incActive = false
	provRecs := w.harvestProvenance(2)
	w.last = CollectionStats{
		Mark:                w.Marker.Stats(),
		Sweep:               sweep,
		Blacklist:           w.Blacklist.Stats(),
		Duration:            time.Since(start),
		HeapBytes:           w.Heap.Stats().HeapBytes,
		Incremental:         true,
		Steps:               w.incSteps,
		RescanObjects:       rescanned,
		FinalRescanObjects:  rescanned,
		PauseMarkNs:         pauseMark.Nanoseconds(),
		PauseSweepNs:        pauseSweep.Nanoseconds(),
		PauseStopNs:         w.lastStopNs,
		SweepDeferredBlocks: w.Heap.SweepPending(),
		Provenance:          w.prov.enabled,
		ProvenanceRecords:   provRecs,
	}
	w.incSteps = 0
	w.traceCycleEnd(w.last)
	w.fireHook()
	return w.last
}
