package alloc

import (
	"math/bits"
	"sync/atomic"

	"repro/internal/mem"
)

// Dirty-object support for the generational, incremental and
// concurrent collectors (DESIGN.md, E12 and §5g).
//
// The paper's last section-3.1 paragraph observes that stray stack
// pointers "significantly lengthen the lifetime of some objects, thus
// placing a ceiling on the effectiveness of generational collection",
// citing the generational-conservative design of Demers et al. (its
// reference [13]). That design keeps mark bits *sticky* across minor
// collections — a marked object is old, an unmarked one young — and
// uses page-granularity dirty bits so that old objects whose pages were
// written since the last collection can be rescanned for old-to-young
// pointers. The mostly-parallel collector (the paper's reference [8])
// uses the same page bits to find black objects written during
// concurrent marking.
//
// Here the dirty bit departs from page granularity: every block keeps
// a per-slot dirty bitmap next to its mark bits, and the write barrier
// (MarkDirty) sets the stored-into object's bit — a store into a large
// object's continuation page sets the head's bit. A per-block summary
// bit rides along, so dirty-block counts keep their page meaning. The
// consumer, TakeDirtyObjects, hands back only the objects that are
// allocated, marked and stored into, not every marked object on a
// dirty page. That is sound and retention-identical: a marked object
// not stored into since its scan (or, if still gray, since its mark)
// has unchanged fields, so rescanning it would mark nothing new. Only
// scan effort changes, never the marked set.

// MarkDirty records a store to addr (which must be a committed heap
// address; other addresses are ignored): it sets the stored-into
// object's dirty bit and its block's summary bit. It reports whether
// the block was newly dirtied — the concurrent-mark barrier counts
// those transitions without a separate lookup.
func (a *Allocator) MarkDirty(addr mem.Addr) bool {
	e := a.extentOfAddr(addr)
	if e == nil {
		return false
	}
	bi := e.startBlock + int(addr-e.seg.Base())/mem.PageBytes
	b := &a.blocks[bi]
	switch b.state {
	case blockSmall:
		// Blocks are page-aligned, so the page offset is the block
		// offset. A store into block-tail waste maps past the last slot
		// onto a bit no allocated object owns.
		slot := slotOf(int(addr%mem.PageBytes), int(b.objWords))
		b.dirtyBits[slot>>6] |= 1 << (uint(slot) & 63)
	case blockLargeHead:
		b.dirtyBits[0] = 1
	case blockLargeCont:
		a.blocks[bi-int(b.spanLen)].dirtyBits[0] = 1
	}
	bit := uint64(1) << (uint(bi) & 63)
	was := a.dirty[bi>>6]
	if was&bit != 0 {
		return false
	}
	a.dirty[bi>>6] = was | bit
	a.dirtyBlocks++
	return true
}

// TakeDirtyObjects calls fn with the base address of every object that
// is allocated, marked and stored into since the last take (or
// ClearDirty), each exactly once, in address order, then clears every
// dirty bit. It returns how many blocks were dirty. Mark bits are read
// atomically, so parallel or detached mark workers may be setting them
// concurrently: an object first-marked after its bit is read is
// scanned by its marker, after the store, so missing it here is sound.
// Callers exclude MarkDirty and every heap-structure mutation.
func (a *Allocator) TakeDirtyObjects(fn func(base mem.Addr)) int {
	n := a.dirtyBlocks
	for w, v := range a.dirty {
		if v == 0 {
			continue
		}
		a.dirty[w] = 0
		for ; v != 0; v &= v - 1 {
			a.takeBlock(w<<6+bits.TrailingZeros64(v), fn)
		}
	}
	a.dirtyBlocks = 0
	return n
}

// takeBlock is TakeDirtyObjects for one dirty block. A large object's
// bit lives on its head, so a span dirtied on several pages is handed
// back by whichever of them is taken first.
func (a *Allocator) takeBlock(bi int, fn func(base mem.Addr)) {
	b := &a.blocks[bi]
	switch b.state {
	case blockLargeCont:
		bi -= int(b.spanLen)
		b = &a.blocks[bi]
		fallthrough
	case blockLargeHead:
		if b.dirtyBits[0] == 0 {
			return
		}
		b.dirtyBits[0] = 0
		if atomic.LoadUint64(&b.markBits[0])&1 != 0 {
			fn(a.blockBase(bi))
		}
	case blockSmall:
		// Alloc bits are stable while the caller excludes allocation,
		// so they are read plainly; one atomic load per mark word.
		objBytes := int(b.objWords) * mem.WordBytes
		base := a.blockBase(bi)
		for wi, dv := range b.dirtyBits {
			if dv == 0 {
				continue
			}
			b.dirtyBits[wi] = 0
			for m := dv & b.allocBits[wi] & atomic.LoadUint64(&b.markBits[wi]); m != 0; m &= m - 1 {
				slot := wi<<6 + bits.TrailingZeros64(m)
				fn(base + mem.Addr(slot*objBytes))
			}
		}
	}
}

// ClearDirty resets every dirty bit; the collector calls it when a
// cycle starts without a remembered set and after each collection.
func (a *Allocator) ClearDirty() { a.TakeDirtyObjects(func(mem.Addr) {}) }

// CountDirty returns the number of dirty blocks.
func (a *Allocator) CountDirty() int { return a.dirtyBlocks }

// ForEachObject calls fn with the base address of every currently
// allocated object, in address order. Objects in sweep-pending blocks
// follow the IsAllocated rule: an unmarked one was classified dead by
// the last collection (only its reclamation is deferred), so it is
// skipped. Heap-snapshot exports and retention reports use this to
// enumerate the heap without probing every slot address.
func (a *Allocator) ForEachObject(fn func(base mem.Addr)) {
	for bi := range a.blocks {
		b := &a.blocks[bi]
		switch b.state {
		case blockLargeHead:
			if !b.pendingSweep || b.markBits[0]&1 != 0 {
				fn(a.blockBase(bi))
			}
		case blockSmall:
			objBytes := int(b.objWords) * mem.WordBytes
			base := a.blockBase(bi)
			for wi, av := range b.allocBits {
				w := av
				if b.pendingSweep {
					w &= b.markBits[wi]
				}
				for ; w != 0; w &= w - 1 {
					slot := wi<<6 + bits.TrailingZeros64(w)
					fn(base + mem.Addr(slot*objBytes))
				}
			}
		}
	}
}

// SweepSticky is Sweep with mark bits preserved: unmarked objects are
// freed, marked objects stay marked ("old"). Together with MarkDirty
// and a root re-scan it implements the sticky-mark-bit minor collection
// of the generational-conservative design. Under LazySweep the deferred
// block sweeps preserve marks the same way, so a block holding any
// old-marked object (markedCount > 0) is never released by a minor
// collection, pending or not.
func (a *Allocator) SweepSticky() SweepResult {
	if a.cfg.LazySweep {
		return a.sweepLazy(false)
	}
	return a.sweep(false)
}

// Sweep reclaims every unmarked object, rebuilds the free lists, and
// clears mark bits for the next full cycle. See also SweepSticky.
func (a *Allocator) Sweep() SweepResult {
	if a.cfg.LazySweep {
		return a.sweepLazy(true)
	}
	return a.sweep(true)
}
