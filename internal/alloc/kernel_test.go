package alloc

import (
	"fmt"
	"testing"

	"repro/internal/mem"
)

// TestSlotRecipExact checks the reciprocal slot index against division
// for every small object size and every block offset, the block end
// included.
func TestSlotRecipExact(t *testing.T) {
	for w := 1; w <= MaxSmallWords; w++ {
		d := w * mem.WordBytes
		for off := 0; off <= mem.PageBytes; off++ {
			if got := slotOf(off, w); got != off/d {
				t.Fatalf("slotOf(%d, %d) = %d, want %d", off, w, got, off/d)
			}
		}
		if got := slotsPerBlock(w); got != mem.PageWords/w {
			t.Fatalf("slotsPerBlock(%d) = %d, want %d", w, got, mem.PageWords/w)
		}
	}
}

// refFindObject is the pointer-validity check written plainly, with
// the divisions the kernel avoids: the reference MarkCandidate must
// agree with.
func refFindObject(a *Allocator, p mem.Addr, interior bool) (base mem.Addr, head int, ok bool) {
	if !a.InCommitted(p) {
		return 0, 0, false
	}
	bi := a.blockIndex(p)
	b := &a.blocks[bi]
	switch b.state {
	case blockSmall:
		d := int(b.objWords) * mem.WordBytes
		slot := int(p-a.blockBase(bi)) / d
		if slot >= mem.PageWords/int(b.objWords) || !bitGet(b.allocBits, slot) {
			return 0, 0, false
		}
		base = a.blockBase(bi) + mem.Addr(slot*d)
	case blockLargeCont:
		if !interior || a.blocks[bi-int(b.spanLen)].ignoreOffPage {
			return 0, 0, false
		}
		bi -= int(b.spanLen)
		fallthrough
	case blockLargeHead:
		base = a.blockBase(bi)
		if p >= base+mem.Addr(int(a.blocks[bi].objWords)*mem.WordBytes) {
			return 0, 0, false
		}
	default:
		return 0, 0, false
	}
	if p != base && !interior {
		return 0, 0, false
	}
	return base, bi, true
}

// refMarkBit returns the index of the mark bit of the object at base in
// its head block hb.
func refMarkBit(a *Allocator, hb int, base mem.Addr) int {
	b := &a.blocks[hb]
	if b.state != blockSmall {
		return 0
	}
	return int(base-a.blockBase(hb)) / (int(b.objWords) * mem.WordBytes)
}

func refKind(b *blockDesc) ScanKind {
	switch {
	case b.atomic:
		return ScanAtomic
	case b.state == blockSmall && b.desc >= 0:
		return ScanTyped
	}
	return ScanConservative
}

// kernelCase builds a heap and returns the first address of each block
// whose every byte the test probes; empty cases probe blocks that hold
// no object.
type kernelCase struct {
	name  string
	cfg   Config
	build func(t *testing.T, a *Allocator) []mem.Addr
	empty bool
}

// blockOf returns the address of the block holding p.
func blockOf(p mem.Addr) mem.Addr { return mem.AlignPageDown(p) }

// allocFreeEvery allocates a block's worth of w-word objects and frees
// every third, leaving allocated and free slots side by side.
func allocFreeEvery(t *testing.T, a *Allocator, w int, atomic bool) []mem.Addr {
	t.Helper()
	var objs []mem.Addr
	for i := 0; i < mem.PageWords/w; i++ {
		objs = append(objs, mustAlloc(t, a, w, atomic))
	}
	for i := 0; i < len(objs); i += 3 {
		if err := a.Free(objs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return objs
}

var kernelCases = []kernelCase{
	{"small 3 words: free slots and tail waste", Config{}, func(t *testing.T, a *Allocator) []mem.Addr {
		return []mem.Addr{blockOf(allocFreeEvery(t, a, 3, false)[1])}
	}, false},
	{"small 1 word: SkipPageBoundarySlot", Config{SkipPageBoundarySlot: true}, func(t *testing.T, a *Allocator) []mem.Addr {
		return []mem.Addr{blockOf(allocFreeEvery(t, a, 1, false)[1])}
	}, false},
	{"small 341 words: one slot per block and wide tail", Config{}, func(t *testing.T, a *Allocator) []mem.Addr {
		objs := allocFreeEvery(t, a, 341, false)
		return []mem.Addr{blockOf(objs[0]), blockOf(objs[1])}
	}, false},
	{"small 512 words, atomic", Config{}, func(t *testing.T, a *Allocator) []mem.Addr {
		return []mem.Addr{blockOf(mustAlloc(t, a, 512, true))}
	}, false},
	{"typed 5 words", Config{}, func(t *testing.T, a *Allocator) []mem.Addr {
		id, err := a.RegisterDescriptor([]bool{true, false, true, false, false})
		if err != nil {
			t.Fatal(err)
		}
		var p mem.Addr
		for i := 0; i < 40; i++ {
			if p, err = a.AllocTyped(id); err != nil {
				t.Fatal(err)
			}
		}
		return []mem.Addr{blockOf(p)}
	}, false},
	{"large: head, continuation, last-page tail", Config{}, func(t *testing.T, a *Allocator) []mem.Addr {
		p := mustAlloc(t, a, 2*mem.PageWords+100, false)
		return []mem.Addr{p, p + mem.PageBytes, p + 2*mem.PageBytes}
	}, false},
	{"large ignore-off-page", Config{}, func(t *testing.T, a *Allocator) []mem.Addr {
		p, err := a.AllocIgnoreOffPage(mem.PageWords+1, false)
		if err != nil {
			t.Fatal(err)
		}
		return []mem.Addr{p, p + mem.PageBytes}
	}, false},
	{"free blocks: released large span", Config{}, func(t *testing.T, a *Allocator) []mem.Addr {
		p := mustAlloc(t, a, 2*mem.PageWords, false)
		mustAlloc(t, a, 4, false) // keep the span from coalescing away
		if err := a.Free(p); err != nil {
			t.Fatal(err)
		}
		return []mem.Addr{p, p + mem.PageBytes}
	}, true},
	{"LineAlloc: freed-LIFO slots keep their alloc bits", Config{LineAlloc: true}, func(t *testing.T, a *Allocator) []mem.Addr {
		var objs []mem.Addr
		for i := 0; i < 100; i++ {
			objs = append(objs, mustAlloc(t, a, 6, false))
		}
		a.FlushSpans()
		for i := 0; i < len(objs); i += 4 {
			if err := a.Free(objs[i]); err != nil {
				t.Fatal(err)
			}
		}
		return []mem.Addr{blockOf(objs[0])}
	}, false},
	{"sweep-pending block", Config{LazySweep: true}, func(t *testing.T, a *Allocator) []mem.Addr {
		var objs []mem.Addr
		for i := 0; i < 200; i++ {
			objs = append(objs, mustAlloc(t, a, 5, false))
		}
		for i := 0; i < len(objs); i += 7 {
			a.Mark(objs[i])
		}
		a.Sweep()
		if a.SweepPending() == 0 {
			t.Fatal("no block left sweep-pending")
		}
		return []mem.Addr{blockOf(objs[0])}
	}, false},
}

// TestMarkCandidateMatchesReference: for every byte offset of each
// case's blocks, under both pointer policies, with plain and CAS
// marking, MarkCandidate resolves exactly what refFindObject does,
// reports the object's words and scan kind, and moves the mark bit and
// the block's mark summary exactly as FindObject followed by Mark did:
// set and counted on the first hit of an object, untouched after.
// FindObject, Marked and ObjectSpan agree at every step.
func TestMarkCandidateMatchesReference(t *testing.T) {
	for _, tc := range kernelCases {
		for _, interior := range []bool{false, true} {
			for _, shared := range []bool{false, true} {
				name := fmt.Sprintf("%s/interior=%v/shared=%v", tc.name, interior, shared)
				t.Run(name, func(t *testing.T) {
					_, a := newTestAllocator(t, tc.cfg)
					blocks := tc.build(t, a)
					hits := 0
					for _, blk := range blocks {
						for off := 0; off < mem.PageBytes; off++ {
							hits += checkKernelAt(t, a, blk+mem.Addr(off), interior, shared)
						}
					}
					if (hits == 0) != tc.empty {
						t.Fatalf("%d offsets resolved to an object", hits)
					}
				})
			}
		}
	}
}

// checkKernelAt probes one address and returns 1 if it named an object.
func checkKernelAt(t *testing.T, a *Allocator, p mem.Addr, interior, shared bool) int {
	t.Helper()
	wantBase, hb, wantOK := refFindObject(a, p, interior)
	if base, ok := a.FindObject(p, interior); ok != wantOK || base != wantBase {
		t.Fatalf("FindObject(%#x) = %#x, %v; want %#x, %v", uint32(p), uint32(base), ok, uint32(wantBase), wantOK)
	}
	if !wantOK {
		obj, marked, ok := a.MarkCandidate(p, interior, shared)
		if ok || marked || obj != (Object{}) {
			t.Fatalf("MarkCandidate(%#x) = %+v, %v, %v on a non-object", uint32(p), obj, marked, ok)
		}
		return 0
	}
	hd := &a.blocks[hb]
	bit := refMarkBit(a, hb, wantBase)
	wasMarked := bitGet(hd.markBits, bit)
	if a.Marked(wantBase) != wasMarked {
		t.Fatalf("Marked(%#x) = %v, bitmap says %v", uint32(wantBase), !wasMarked, wasMarked)
	}
	count := hd.markedCount
	obj, marked, ok := a.MarkCandidate(p, interior, shared)
	want := Object{Base: wantBase, Words: int(hd.objWords), Kind: refKind(hd)}
	if !ok || obj != want {
		t.Fatalf("MarkCandidate(%#x) = %+v, %v; want %+v", uint32(p), obj, ok, want)
	}
	if marked == wasMarked {
		t.Fatalf("MarkCandidate(%#x) marked = %v with the bit already %v", uint32(p), marked, wasMarked)
	}
	if !bitGet(hd.markBits, bit) {
		t.Fatalf("MarkCandidate(%#x) left the mark bit clear", uint32(p))
	}
	wantCount := count
	if marked {
		wantCount++
	}
	if hd.markedCount != wantCount {
		t.Fatalf("MarkCandidate(%#x): markedCount %d, want %d", uint32(p), hd.markedCount, wantCount)
	}
	if words, atomic := a.ObjectSpan(wantBase); words != want.Words || atomic != (want.Kind == ScanAtomic) {
		t.Fatalf("ObjectSpan(%#x) = %d, %v; want %d, %v", uint32(wantBase), words, atomic, want.Words, want.Kind == ScanAtomic)
	}
	return 1
}
