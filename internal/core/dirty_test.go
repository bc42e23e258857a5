package core

import (
	"testing"

	"repro/internal/mem"
)

// hideRow is one slot-mapping edge of the hide-behind-black tape: how
// the black holder (and its clean neighbour) is allocated and where in
// the holder the hiding store lands.
type hideRow struct {
	name string
	cfg  func(*Config)
	// alloc allocates the clean neighbour, then the holder, with the
	// same shape: they share a block where the shape allows, and the
	// holder is never its block's first slot.
	alloc func(t *testing.T, w *World) (neighbour, holder mem.Addr)
	// off is the byte offset of the hiding store inside the holder.
	off mem.Addr
}

// hideMode is one way of running a cycle around the tape. start opens
// the cycle and leaves holder and neighbour black with the gray path
// still unscanned; finish completes it.
type hideMode struct {
	name  string
	cfg   Config
	minor bool // holder and neighbour are made old by a full collection first
	// raced: background workers may scan the gray path before the hide,
	// so the window cannot be asserted open (and mark bits cannot be
	// read race-free mid-cycle).
	raced  bool
	start  func(t *testing.T, w *World)
	finish func(t *testing.T, w *World) CollectionStats
	// wantRescan is how many objects the cycle's dirty takes must
	// re-gray: the holder, plus the gray-path object the erase stored
	// into when that object is already marked at the take. Never the
	// clean neighbour.
	wantRescan int
}

func allocWords(words int) func(t *testing.T, w *World) mem.Addr {
	return func(t *testing.T, w *World) mem.Addr {
		t.Helper()
		p, err := w.Allocate(words, false)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
}

func twoOf(words int) func(t *testing.T, w *World) (mem.Addr, mem.Addr) {
	return func(t *testing.T, w *World) (mem.Addr, mem.Addr) {
		return allocWords(words)(t, w), allocWords(words)(t, w)
	}
}

func finishConcurrentSteps(t *testing.T, w *World) CollectionStats {
	t.Helper()
	for steps := 0; !w.ConcurrentStep(1); steps++ {
		if steps > 100_000 {
			t.Fatal("cycle did not terminate")
		}
	}
	return w.LastCollection()
}

// TestHideBehindBlack is the insertion barrier's slot-mapping table:
// every row stores the only pointer to a white object x into a black
// holder, then erases the gray path (c1 → x) to it, under every cycle
// shape that consumes dirty bits. x must survive, an unreferenced
// control object must not, and the dirty takes must re-gray exactly
// the stored-into marked objects — never the holder's clean neighbour.
func TestHideBehindBlack(t *testing.T) {
	rows := []hideRow{
		{name: "clean neighbour in the same block", alloc: twoOf(4), off: 0},
		{name: "object's last word", alloc: twoOf(4), off: 3 * mem.WordBytes},
		{name: "large object's continuation page", alloc: twoOf(2 * mem.PageWords),
			off: mem.PageBytes + 5*mem.WordBytes},
		{name: "typed block", alloc: func(t *testing.T, w *World) (mem.Addr, mem.Addr) {
			t.Helper()
			id, err := w.RegisterLayout([]bool{false, true, false, true})
			if err != nil {
				t.Fatal(err)
			}
			var objs [2]mem.Addr
			for i := range objs {
				if objs[i], err = w.AllocateTyped(id); err != nil {
					t.Fatal(err)
				}
			}
			return objs[0], objs[1]
		}, off: 3 * mem.WordBytes},
		{name: "line-allocated block", cfg: func(c *Config) { c.LineAlloc = true },
			alloc: twoOf(4), off: 2 * mem.WordBytes},
		{name: "page-boundary slot skipped", cfg: func(c *Config) { c.SkipPageBoundarySlot = true },
			alloc: twoOf(2), off: mem.WordBytes},
	}
	concurrentStart := func(t *testing.T, w *World) {
		if err := w.StartConcurrentCycle(); err != nil {
			t.Fatal(err)
		}
		// LIFO root order c1, neighbour, holder: two one-object steps
		// scan holder and neighbour, leaving c1 (and x behind it) gray.
		if w.ConcurrentStep(1) || w.ConcurrentStep(1) {
			t.Fatal("cycle completed before the hide")
		}
	}
	modes := []hideMode{
		{
			name:       "lock-chunked concurrent",
			cfg:        Config{ConcurrentMark: true, MarkWorkers: 1, ConcMarkWorkers: 1, GCDivisor: -1},
			start:      concurrentStart,
			finish:     finishConcurrentSteps,
			wantRescan: 2,
		},
		{
			name:  "detached concurrent",
			cfg:   Config{ConcurrentMark: true, ConcMarkWorkers: 2, GCDivisor: -1},
			raced: true,
			start: func(t *testing.T, w *World) {
				if err := w.StartConcurrentCycle(); err != nil {
					t.Fatal(err)
				}
			},
			finish:     finishConcurrentSteps,
			wantRescan: 2,
		},
		{
			name: "incremental",
			cfg:  Config{Incremental: true, GCDivisor: -1},
			start: func(t *testing.T, w *World) {
				if err := w.StartIncrementalCycle(); err != nil {
					t.Fatal(err)
				}
				if w.IncrementalStep(2) {
					t.Fatal("gray set drained before the hide")
				}
			},
			finish:     func(t *testing.T, w *World) CollectionStats { return w.FinishIncrementalCycle() },
			wantRescan: 2,
		},
		{
			// All stores precede the minor collection; c1 is young, so
			// at the take only the old holder is marked.
			name:       "stop-the-world minor",
			cfg:        Config{Generational: true, GCDivisor: -1, MinorDivisor: -1},
			minor:      true,
			start:      func(t *testing.T, w *World) {},
			finish:     func(t *testing.T, w *World) CollectionStats { return w.CollectMinor() },
			wantRescan: 1,
		},
		{
			// The snapshot marks young c1 gray; the old holder and
			// neighbour are black from the start.
			name: "concurrent minor",
			cfg: Config{Generational: true, ConcurrentMark: true, MarkWorkers: 1, ConcMarkWorkers: 1,
				GCDivisor: -1, MinorDivisor: -1},
			minor: true,
			start: func(t *testing.T, w *World) {
				w.mu.Lock()
				w.startConcurrentLocked(true)
				w.mu.Unlock()
			},
			finish:     finishConcurrentSteps,
			wantRescan: 2,
		},
	}
	for _, mode := range modes {
		for _, row := range rows {
			t.Run(mode.name+"/"+row.name, func(t *testing.T) {
				cfg := mode.cfg
				if row.cfg != nil {
					row.cfg(&cfg)
				}
				w := newWorld(t, cfg)
				addData(t, w, "data", 0x2000, 4096)
				store := func(at mem.Addr, v mem.Addr) {
					t.Helper()
					if err := w.Store(at, mem.Word(v)); err != nil {
						t.Fatal(err)
					}
				}
				neighbour, holder := row.alloc(t, w)
				store(0x2004, neighbour)
				store(0x2008, holder)
				if mode.minor {
					w.Collect() // holder and neighbour become old
				}
				c1 := allocWords(2)(t, w)
				x := allocWords(2)(t, w)
				garbage := allocWords(2)(t, w)
				store(0x2000, c1)
				store(c1, x)

				mode.start(t, w)
				if !mode.raced && (!w.Heap.Marked(holder) || w.Heap.Marked(x)) {
					t.Fatal("adversarial window did not open: holder must be black, x white")
				}
				store(holder+row.off, x) // the hide
				store(c1, 0)             // erase the gray path
				st := mode.finish(t, w)

				if !w.Heap.IsAllocated(x) {
					t.Fatalf("hidden object %#x was swept", uint32(x))
				}
				if w.Heap.IsAllocated(garbage) {
					t.Fatal("unreferenced control object survived; the sweep did not run")
				}
				if st.RescanObjects != mode.wantRescan {
					t.Fatalf("RescanObjects = %d, want %d", st.RescanObjects, mode.wantRescan)
				}
			})
		}
	}
}

// TestFinalRescanCountsStoredObjects pins the finale's work to the
// mutator's: k stores into k distinct black objects after the gray set
// is otherwise drained make the final pause re-gray exactly k objects,
// although all of them share one block with 200 other marked objects.
func TestFinalRescanCountsStoredObjects(t *testing.T) {
	const others = 200
	for _, k := range []int{1, 3, 7} {
		w := newWorld(t, Config{ConcurrentMark: true, MarkWorkers: 1, ConcMarkWorkers: 1, GCDivisor: -1})
		data := addData(t, w, "data", 0x2000, 4096)
		// objs[0] stays gray until the finale; objs[1..k] are stored
		// into; the rest are marked bystanders. All 2-word objects, so
		// 1+k+others slots of one 512-slot block.
		objs := make([]mem.Addr, 1+k+others)
		for i := range objs {
			objs[i] = allocWords(2)(t, w)
			if err := data.Store(0x2000+mem.Addr(i*mem.WordBytes), mem.Word(objs[i])); err != nil {
				t.Fatal(err)
			}
		}
		if first, last := objs[0]/mem.PageBytes, objs[len(objs)-1]/mem.PageBytes; first != last {
			t.Fatalf("k=%d: objects span pages %#x..%#x, want one block", k, first, last)
		}
		targets := make([]mem.Addr, k) // white until the finale rescans
		for i := range targets {
			targets[i] = allocWords(2)(t, w)
		}
		if err := w.StartConcurrentCycle(); err != nil {
			t.Fatal(err)
		}
		// The root scan pushed objs in order; popping LIFO, one step of
		// len-1 objects blackens all but objs[0].
		if w.ConcurrentStep(len(objs) - 1) {
			t.Fatal("cycle completed before the stores")
		}
		for i, x := range targets {
			if err := w.Store(objs[1+i]+mem.WordBytes, mem.Word(x)); err != nil {
				t.Fatal(err)
			}
		}
		st := finishConcurrentSteps(t, w)
		if st.RescanPasses != 0 || st.FinalDirtyBlocks != 1 {
			t.Fatalf("k=%d: %d passes, %d final dirty blocks; want 0 and 1", k, st.RescanPasses, st.FinalDirtyBlocks)
		}
		if st.FinalRescanObjects != k || st.RescanObjects != k {
			t.Fatalf("k=%d: FinalRescanObjects = %d, RescanObjects = %d; want exactly k",
				k, st.FinalRescanObjects, st.RescanObjects)
		}
		for _, x := range targets {
			if !w.Heap.IsAllocated(x) {
				t.Fatalf("k=%d: object %#x stored into a black object was swept", k, uint32(x))
			}
		}
	}
}
