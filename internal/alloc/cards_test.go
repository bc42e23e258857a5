package alloc

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/simrand"
)

// TestTakeDirtyObjects checks the dirty-object take against a per-slot
// reference — allocated ∧ marked ∧ stored into — over random marks and
// random interior-word stores, including stores into the continuation
// pages of large objects and into unallocated slots and block-tail
// waste. Every reference object comes back exactly once, the return
// value counts the distinct dirty blocks, and a second take is empty.
func TestTakeDirtyObjects(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		_, a := newTestAllocator(t, Config{})
		rng := simrand.New(seed)
		var objs []mem.Addr
		for i := 0; i < 600; i++ {
			words := 1 + rng.Intn(12)
			if rng.Bool(0.02) {
				words = MaxSmallWords + 1 + rng.Intn(3*mem.PageWords) // spans 1-4 blocks
			}
			objs = append(objs, mustAlloc(t, a, words, rng.Bool(0.1)))
		}
		for _, p := range objs {
			if rng.Bool(0.5) {
				a.Mark(p)
			}
		}
		want := map[mem.Addr]bool{}
		blocks := map[int]bool{}
		lo, hi := a.Base(), a.Limit()
		for i := 0; i < 300; i++ {
			var at mem.Addr
			if rng.Bool(0.8) {
				p := objs[rng.Intn(len(objs))]
				words, _ := a.ObjectSpan(p)
				at = p + mem.Addr(rng.Intn(words)*mem.WordBytes)
			} else {
				// Anywhere in the committed heap: free slots, tail waste,
				// free blocks — none may come back.
				at = lo + mem.Addr(rng.Intn(int(hi-lo)/mem.WordBytes)*mem.WordBytes)
			}
			a.MarkDirty(at)
			blocks[a.blockIndex(at)] = true
			if base, ok := a.FindObject(at, true); ok && a.Marked(base) {
				want[base] = true
			}
		}
		if got := a.CountDirty(); got != len(blocks) {
			t.Fatalf("seed %d: CountDirty = %d, want %d", seed, got, len(blocks))
		}
		got := map[mem.Addr]bool{}
		var prev mem.Addr
		n := a.TakeDirtyObjects(func(p mem.Addr) {
			if got[p] {
				t.Fatalf("seed %d: %#x returned twice", seed, uint32(p))
			}
			if p < prev {
				t.Fatalf("seed %d: %#x returned after %#x", seed, uint32(p), uint32(prev))
			}
			got[p], prev = true, p
		})
		if n != len(blocks) {
			t.Fatalf("seed %d: take reported %d dirty blocks, want %d", seed, n, len(blocks))
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: take returned %d objects, want %d", seed, len(got), len(want))
		}
		for p := range want {
			if !got[p] {
				t.Fatalf("seed %d: stored-into marked object %#x not returned", seed, uint32(p))
			}
		}
		if n := a.TakeDirtyObjects(func(p mem.Addr) {
			t.Fatalf("seed %d: second take returned %#x", seed, uint32(p))
		}); n != 0 || a.CountDirty() != 0 {
			t.Fatalf("seed %d: second take saw %d dirty blocks (count %d)", seed, n, a.CountDirty())
		}
	}
}

// BenchmarkTakeDirtyObjects measures the take over one block of
// one-word objects with a realistic sparse mark pattern and a handful
// of stored-into objects: the per-pass cost of a concurrent rescan.
func BenchmarkTakeDirtyObjects(b *testing.B) {
	space := mem.NewAddressSpace()
	a, err := New(space, Config{
		HeapBase:     testHeapBase,
		InitialBytes: 64 * mem.PageBytes,
		ReserveBytes: 1024 * mem.PageBytes,
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := simrand.New(3)
	var objs []mem.Addr
	for i := 0; i < 1024; i++ { // one-word objects: 1024 fill exactly one block
		p, err := a.Alloc(1, false)
		if err != nil {
			b.Fatal(err)
		}
		objs = append(objs, p)
	}
	for _, p := range objs {
		if rng.Bool(0.1) {
			a.Mark(p)
		}
	}
	stores := make([]mem.Addr, 16)
	for i := range stores {
		stores[i] = objs[rng.Intn(len(objs))]
	}
	n := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range stores {
			a.MarkDirty(p)
		}
		a.TakeDirtyObjects(func(mem.Addr) { n++ })
	}
}
