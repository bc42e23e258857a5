package alloc

import (
	"math/bits"
	"sort"

	"repro/internal/mem"
)

// Per-tenant byte attribution (core's multi-tenant serving layer, see
// DESIGN.md section 5i), kept as block-local side metadata like the
// mark bits: a block holding a budgeted tenant's object carries an
// owners array, one tenant id per slot (one entry for a large object),
// 0 for unowned. Charged bytes are not stored: they are the block's
// objWords × WordBytes, exactly what the tenant was charged.
//
// Owners change only under the world's central lock: a carve tags its
// slots (TagOwner), a flush untags the unconsumed ones (ReturnRun,
// ReturnSpan), Free credits the freed object's owner, and each sweep
// barrier credits the owner of every slot it condemns (creditDead) —
// at the classification, so a lazily swept tenant's budget never waits
// for the deferred sweep. A non-zero entry therefore always marks an
// allocated, uncondemned slot. Each tenant also lists the blocks it
// tagged (stale entries tolerated, compacted when walked or outgrown),
// so eviction and OwnedBytes visit only the tenant's own blocks. The
// arrays stay nil in worlds without budgeted tenants.

// SetOwnerCredit installs the callback that returns a dead or freed
// owned object's bytes to its tenant.
func (a *Allocator) SetOwnerCredit(fn func(id int32, objects, bytes uint64)) {
	a.ownerCredit = fn
}

// ownerSlot returns the owners index of the object at base in block b.
func ownerSlot(b *blockDesc, base mem.Addr) int {
	if b.state != blockSmall {
		return 0
	}
	return slotOf(int(base%mem.PageBytes), int(b.objWords))
}

// TagOwner records that the object (or carved slot) at base is owned by
// tenant id.
func (a *Allocator) TagOwner(base mem.Addr, id int32) {
	bi := a.blockIndex(base)
	b := &a.blocks[bi]
	if b.owners == nil {
		n := 1
		if b.state == blockSmall {
			n = slotsPerBlock(int(b.objWords))
		}
		b.owners = make([]int32, n)
	}
	b.owners[ownerSlot(b, base)] = id
	for int(id) >= len(a.ownerBlocks) {
		a.ownerBlocks = append(a.ownerBlocks, nil)
	}
	l := a.ownerBlocks[id]
	if len(l) > 0 && l[len(l)-1] == bi {
		return // a carve tags runs of slots in one block
	}
	if len(l) == cap(l) && len(l) > 0 {
		// Full: compact, and double the capacity unless that freed half
		// of it, so compaction stays amortised O(1) per append.
		if l = a.ownedBlocks(id); len(l) > cap(l)/2 {
			l = append(make([]int, 0, 2*cap(l)), l...)
		}
	}
	a.ownerBlocks[id] = append(l, bi)
}

// creditOwner clears the owner of a freed or condemned slot and credits
// it.
func (a *Allocator) creditOwner(b *blockDesc, slot int) {
	if b.owners == nil || b.owners[slot] == 0 {
		return
	}
	id := b.owners[slot]
	b.owners[slot] = 0
	if a.ownerCredit != nil {
		a.ownerCredit(id, 1, uint64(b.objWords)*mem.WordBytes)
	}
}

// creditDead credits the owner of every slot of small block b the sweep
// barrier is about to reclaim (allocated, unmarked): one owners read
// per dead slot.
func (a *Allocator) creditDead(b *blockDesc) {
	if b.owners == nil {
		return
	}
	for wi, am := range b.allocBits {
		for dead := am &^ b.markBits[wi]; dead != 0; dead &= dead - 1 {
			a.creditOwner(b, wi<<6+bits.TrailingZeros64(dead))
		}
	}
}

// ownedBlocks compacts tenant id's block list in place — sorted,
// deduplicated, and stripped of blocks where it owns nothing — and
// returns it.
func (a *Allocator) ownedBlocks(id int32) []int {
	if int(id) >= len(a.ownerBlocks) {
		return nil
	}
	l := a.ownerBlocks[id]
	sort.Ints(l)
	out := l[:0]
	for i, bi := range l {
		if i > 0 && bi == l[i-1] {
			continue
		}
		for _, o := range a.blocks[bi].owners {
			if o == id {
				out = append(out, bi)
				break
			}
		}
	}
	a.ownerBlocks[id] = out
	return out
}

// ownedSlots calls fn with the base address and charged bytes of every
// object tenant id owns, in ascending address order.
func (a *Allocator) ownedSlots(id int32, fn func(base mem.Addr, bytes uint64)) {
	for _, bi := range a.ownedBlocks(id) {
		b := &a.blocks[bi]
		objBytes := int(b.objWords) * mem.WordBytes
		for slot, o := range b.owners {
			if o == id {
				fn(a.blockBase(bi)+mem.Addr(slot*objBytes), uint64(objBytes))
			}
		}
	}
}

// OwnedBytes sums the charged bytes of every object (and carved slot)
// tenant id owns. With the tenant's caches flushed it equals the
// tenant's live-byte counter exactly.
func (a *Allocator) OwnedBytes(id int32) uint64 {
	var sum uint64
	a.ownedSlots(id, func(_ mem.Addr, bytes uint64) { sum += bytes })
	return sum
}

// FreeOwned frees every object tenant id owns, reachable or not —
// eviction — crediting each, and drops the tenant's block list. The
// tenant's caches must be flushed first.
func (a *Allocator) FreeOwned(id int32) {
	var objs []mem.Addr
	a.ownedSlots(id, func(base mem.Addr, _ uint64) { objs = append(objs, base) })
	for _, p := range objs {
		a.Free(p)
	}
	if int(id) < len(a.ownerBlocks) {
		a.ownerBlocks[id] = nil
	}
}

// OwnerOf returns the tenant owning the object at base, if any: the
// retention watcher's per-object attribution.
func (a *Allocator) OwnerOf(base mem.Addr) (id int32, ok bool) {
	if !a.InCommitted(base) {
		return 0, false
	}
	if b := &a.blocks[a.blockIndex(base)]; b.owners != nil {
		id = b.owners[ownerSlot(b, base)]
	}
	return id, id != 0
}
