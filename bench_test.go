// Benchmarks regenerating the paper's tables and figures as testing.B
// benchmarks, one family per artifact (see DESIGN.md's experiment
// index). Sizes are reduced where a full paper-scale run per iteration
// would be excessive; cmd/gcbench runs everything at paper scale.
package repro

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/alloc"
	"repro/internal/blacklist"
	"repro/internal/mark"
	"repro/internal/mem"
	"repro/internal/platform"
	"repro/internal/simrand"
	"repro/internal/workload"
)

// --- E1 / Table 1: program T retention runs ---

func benchProgramT(b *testing.B, profile Profile, blacklisting bool) {
	b.ReportAllocs()
	// Reduced program T: same structure, an eighth of the data.
	profile.NodesPerList /= 8
	profile.InitialHeap /= 4
	for i := 0; i < b.N; i++ {
		env, err := profile.Build(uint64(i)+1, blacklisting)
		if err != nil {
			b.Fatal(err)
		}
		res, err := env.RunProgramT()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.RetainedFraction(), "%retained")
	}
}

func BenchmarkTable1SPARCStaticNoBlacklist(b *testing.B) {
	benchProgramT(b, platform.SPARCStatic(false), false)
}

func BenchmarkTable1SPARCStaticBlacklist(b *testing.B) {
	benchProgramT(b, platform.SPARCStatic(false), true)
}

func BenchmarkTable1SPARCDynamicNoBlacklist(b *testing.B) {
	benchProgramT(b, platform.SPARCDynamic(false), false)
}

func BenchmarkTable1SPARCDynamicBlacklist(b *testing.B) {
	benchProgramT(b, platform.SPARCDynamic(false), true)
}

func BenchmarkTable1SGIBlacklist(b *testing.B) {
	benchProgramT(b, platform.SGI(false), true)
}

func BenchmarkTable1OS2Blacklist(b *testing.B) {
	benchProgramT(b, platform.OS2(false), true)
}

func BenchmarkTable1PCRBlacklist(b *testing.B) {
	benchProgramT(b, platform.PCR(1<<20), true)
}

// --- E2 / Figure 1: candidate extraction alignment ---

func benchFigure1(b *testing.B, align AlignPolicy) {
	for i := 0; i < b.N; i++ {
		rows, _, err := Figure1(Figure1Options{
			StaticWords:   8192,
			HeapFillBytes: 1 << 20,
			Seed:          uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Alignment == align && !r.SkipBoundarySlot {
				b.ReportMetric(float64(r.Misidentified), "misidentified")
			}
		}
	}
}

func BenchmarkFigure1Aligned(b *testing.B)   { benchFigure1(b, AlignedWords) }
func BenchmarkFigure1Unaligned(b *testing.B) { benchFigure1(b, AnyByteOffset) }

// --- E5 / section 3.1: stack clearing ---

func benchReversal(b *testing.B, mode ReverseMode, clear ClearPolicy) {
	for i := 0; i < b.N; i++ {
		w, err := NewWorld(Config{
			InitialHeapBytes: 1 << 20,
			ReserveHeapBytes: 16 << 20,
			AllocatorResidue: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		m, err := NewMachine(w, MachineConfig{
			StackTop: 0xF0000000, StackBytes: 1 << 20,
			FrameSlopWords: 12, RegisterWindows: true,
			Clear: clear, ClearChunkWords: 24, ClearFullEvery: 4096,
			Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := workload.RunReversal(w, m, ReverseParams{
			ListLen: 250, Iterations: 120, Mode: mode, SampleEvery: 10, Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.MaxLiveCells), "maxlive")
	}
}

func BenchmarkStackClearingNone(b *testing.B) {
	benchReversal(b, ReverseRecursive, ClearNone)
}

func BenchmarkStackClearingCheap(b *testing.B) {
	benchReversal(b, ReverseRecursive, ClearCheap)
}

func BenchmarkStackClearingLoop(b *testing.B) {
	benchReversal(b, ReverseLoop, ClearNone)
}

// --- E4 / figures 3 and 4: grid representations ---

func benchGrid(b *testing.B, kind GridKind) {
	w, err := NewWorld(Config{
		InitialHeapBytes: 8 << 20, ReserveHeapBytes: 16 << 20, GCDivisor: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	g, err := BuildGrid(w, 60, 60, kind)
	if err != nil {
		b.Fatal(err)
	}
	rng := simrand.New(1)
	b.ResetTimer()
	var total uint64
	for i := 0; i < b.N; i++ {
		objs, _ := workload.FalseRefTrial(w, g.Objects, rng)
		total += objs
	}
	b.ReportMetric(float64(total)/float64(b.N), "retained/op")
}

func BenchmarkGridRetentionEmbedded(b *testing.B) { benchGrid(b, GridEmbedded) }
func BenchmarkGridRetentionSeparate(b *testing.B) { benchGrid(b, GridSeparate) }

// --- E6 / section 4: trees and queues ---

func BenchmarkTreeRetention(b *testing.B) {
	w, err := NewWorld(Config{
		InitialHeapBytes: 8 << 20, ReserveHeapBytes: 16 << 20, GCDivisor: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	t, err := workload.BuildBalancedTree(w, 14)
	if err != nil {
		b.Fatal(err)
	}
	rng := simrand.New(1)
	b.ResetTimer()
	var total uint64
	for i := 0; i < b.N; i++ {
		objs, _ := workload.FalseRefTrial(w, t.Nodes, rng)
		total += objs
	}
	b.ReportMetric(float64(total)/float64(b.N), "retained/op")
}

func benchQueue(b *testing.B, clearLinks bool) {
	for i := 0; i < b.N; i++ {
		w, err := NewWorld(Config{
			InitialHeapBytes: 2 << 20, ReserveHeapBytes: 32 << 20, GCDivisor: -1,
		})
		if err != nil {
			b.Fatal(err)
		}
		root, err := w.Space.MapNew("roots", KindData, 0x2000, 4096, 4096)
		if err != nil {
			b.Fatal(err)
		}
		res, err := workload.RunQueueChurn(w, 50, 5000, clearLinks, root, 0x2000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.FinalLiveObjects), "finallive")
	}
}

func BenchmarkQueueClearingOff(b *testing.B) { benchQueue(b, false) }
func BenchmarkQueueClearingOn(b *testing.B)  { benchQueue(b, true) }

// --- E7 / footnote 3: allocation latency and blacklisting cost ---

func benchAlloc8(b *testing.B, mode BlacklistMode) {
	w, err := NewWorld(Config{
		InitialHeapBytes: 8 << 20,
		ReserveHeapBytes: 8 << 20,
		Blacklisting:     mode,
		GCDivisor:        -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Allocate(2, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlloc8BlacklistOff(b *testing.B) { benchAlloc8(b, BlacklistOff) }
func BenchmarkAlloc8BlacklistOn(b *testing.B)  { benchAlloc8(b, BlacklistDense) }

// BenchmarkBlacklistOverhead isolates the figure-2 bookkeeping: marking
// a polluted root set with and without a live blacklist.
func benchMarkRoots(b *testing.B, useBlacklist bool) {
	space := mem.NewAddressSpace()
	var bl blacklist.List = blacklist.Disabled{}
	if useBlacklist {
		bl, _ = blacklist.NewDense(0x400000, 0x400000+(16<<20), mem.PageBytes)
	}
	heap, err := alloc.New(space, alloc.Config{
		HeapBase: 0x400000, InitialBytes: 8 << 20, ReserveBytes: 16 << 20, Blacklist: bl,
	})
	if err != nil {
		b.Fatal(err)
	}
	m := mark.New(heap, mark.Config{Blacklist: bl})
	// Roots: a mixture of valid pointers, near-heap misses, and junk.
	rng := simrand.New(9)
	roots := make([]mem.Word, 65536)
	var objs []mem.Addr
	for i := 0; i < 1000; i++ {
		p, err := heap.Alloc(2, false)
		if err != nil {
			b.Fatal(err)
		}
		objs = append(objs, p)
	}
	for i := range roots {
		switch rng.Intn(3) {
		case 0:
			roots[i] = mem.Word(objs[rng.Intn(len(objs))])
		case 1:
			roots[i] = mem.Word(0x400000 + rng.Uint32n(16<<20)) // near heap
		default:
			roots[i] = mem.Word(rng.Uint32())
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MarkWords(roots)
		m.Drain()
		b.StopTimer()
		heap.ClearMarks()
		m.Reset()
		b.StartTimer()
	}
}

func BenchmarkBlacklistOverheadOff(b *testing.B) { benchMarkRoots(b, false) }
func BenchmarkBlacklistOverheadOn(b *testing.B)  { benchMarkRoots(b, true) }

// --- E8 / observation 7: large objects under a polluted blacklist ---

func BenchmarkLargeObjects(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := LargeObjects(LargeObjectsOptions{
			HeapBytes: 4 << 20,
			SizesKB:   []int{100},
			Seed:      uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[0].CapacityInterior), "interior-cap")
		b.ReportMetric(float64(rows[0].CapacityBase), "base-cap")
	}
}

// --- E10 / conclusions: free-block policy fragmentation ---

func benchFragmentation(b *testing.B, policy FreeBlockPolicy) {
	for i := 0; i < b.N; i++ {
		space := mem.NewAddressSpace()
		a, err := alloc.New(space, alloc.Config{
			HeapBase: 0x400000, InitialBytes: 8 << 20, ReserveBytes: 8 << 20,
			FreeBlocks: policy,
		})
		if err != nil {
			b.Fatal(err)
		}
		rng := simrand.New(uint64(i))
		var live []mem.Addr
		for round := 0; round < 4; round++ {
			for {
				p, err := a.Alloc((1+rng.Intn(4))*mem.PageWords, false)
				if err != nil {
					break
				}
				live = append(live, p)
			}
			rng.Shuffle(len(live), func(x, y int) { live[x], live[y] = live[y], live[x] })
			keep := len(live) * 2 / 5
			for _, p := range live[keep:] {
				if err := a.Free(p); err != nil {
					b.Fatal(err)
				}
			}
			live = live[:keep]
		}
		b.ReportMetric(float64(a.LargestFreeSpan()), "largest-span")
	}
}

func BenchmarkFragmentationAddressOrdered(b *testing.B) {
	benchFragmentation(b, AddressOrdered)
}

func BenchmarkFragmentationLIFO(b *testing.B) {
	benchFragmentation(b, LIFO)
}

// --- E11 / footnote 4: dual-run certification ---

func BenchmarkDualRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, _, err := DualRun(DualRunOptions{
			Lists: 30, NodesPerList: 500, FalseRoots: 200, Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.SingleRunRetained), "single-retained")
		b.ReportMetric(float64(res.DualRunRetained), "dual-retained")
	}
}

// --- Collector throughput: a full collection over a live list heap ---

func BenchmarkCollectLiveList(b *testing.B) {
	w, err := NewWorld(Config{
		InitialHeapBytes: 8 << 20, ReserveHeapBytes: 16 << 20, GCDivisor: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	data, err := w.Space.MapNew("data", KindData, 0x2000, 4096, 4096)
	if err != nil {
		b.Fatal(err)
	}
	head, err := MakeList(w, 200000)
	if err != nil {
		b.Fatal(err)
	}
	data.Store(0x2000, Word(head))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := w.Collect()
		if st.Sweep.ObjectsLive != 200000 {
			b.Fatalf("live = %d", st.Sweep.ObjectsLive)
		}
	}
	b.SetBytes(200000 * 8)
}

// --- Parallel marking: mark-phase throughput by worker count ---

// benchParallelMark measures one mark phase (MarkOnly: mark from roots,
// count, clear) over a heap of 64 rooted lists, with the mark phase
// sharded across the given worker count. Single-CPU containers will
// show no speedup — the point of the 1-worker row is the serial
// baseline, and the multi-worker rows additionally carry the CAS and
// queue overhead; run on a multi-core host for the scaling curve.
func benchParallelMark(b *testing.B, workers int) {
	w, err := NewWorld(Config{
		InitialHeapBytes: 16 << 20, ReserveHeapBytes: 32 << 20,
		GCDivisor: -1, MarkWorkers: workers,
	})
	if err != nil {
		b.Fatal(err)
	}
	data, err := w.Space.MapNew("data", KindData, 0x2000, 4096, 4096)
	if err != nil {
		b.Fatal(err)
	}
	const lists, nodes = 64, 4000
	for i := 0; i < lists; i++ {
		head, err := MakeList(w, nodes)
		if err != nil {
			b.Fatal(err)
		}
		data.Store(0x2000+Addr(i*8), Word(head))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		objs, _ := w.MarkOnly()
		if objs != lists*nodes {
			b.Fatalf("marked %d, want %d", objs, lists*nodes)
		}
	}
	b.SetBytes(lists * nodes * 8)
}

func BenchmarkParallelMark1(b *testing.B) { benchParallelMark(b, 1) }
func BenchmarkParallelMark2(b *testing.B) { benchParallelMark(b, 2) }
func BenchmarkParallelMark4(b *testing.B) { benchParallelMark(b, 4) }
func BenchmarkParallelMark8(b *testing.B) { benchParallelMark(b, 8) }

// BenchmarkFindObjectMiss measures the candidate-rejection fast path:
// root words that are NOT heap pointers, the overwhelmingly common case
// in real root scans. Half the words fall outside the reserved hull
// (rejected by two compares), half inside but invalid (full lookup).
func BenchmarkFindObjectMiss(b *testing.B) {
	space := mem.NewAddressSpace()
	heap, err := alloc.New(space, alloc.Config{
		HeapBase: 0x400000, InitialBytes: 8 << 20, ReserveBytes: 16 << 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	m := mark.New(heap, mark.Config{})
	rng := simrand.New(3)
	roots := make([]mem.Word, 65536)
	for i := range roots {
		if i%2 == 0 {
			roots[i] = mem.Word(rng.Uint32() | 0x80000000) // far outside
		} else {
			roots[i] = mem.Word(0x400000 + (8 << 20) + rng.Uint32n(8<<20)) // vicinity
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MarkWords(roots)
	}
	b.SetBytes(int64(len(roots) * 4))
}

// --- E12 / section 3.1 end: generational ceiling ---

func benchGenerational(b *testing.B, clear ClearPolicy) {
	for i := 0; i < b.N; i++ {
		rows, _, err := GenerationalCeiling(GenerationalOptions{
			Iterations: 100, BatchCells: 100, Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Clear == clear {
				b.ReportMetric(float64(r.GarbageTenured), "garbage-tenured")
			}
		}
	}
}

func BenchmarkGenerationalCeilingNoClear(b *testing.B) { benchGenerational(b, ClearNone) }
func BenchmarkGenerationalCeilingEager(b *testing.B)   { benchGenerational(b, ClearEager) }

// BenchmarkMinorVsFullCollection compares the per-cycle cost of minor
// and full collections over a mostly-old heap, the payoff generational
// collection exists for.
func BenchmarkMinorCollection(b *testing.B) { benchMinorFull(b, true) }
func BenchmarkFullCollection(b *testing.B)  { benchMinorFull(b, false) }

func benchMinorFull(b *testing.B, minor bool) {
	w, err := NewWorld(Config{
		InitialHeapBytes: 8 << 20, ReserveHeapBytes: 16 << 20,
		Generational: true, GCDivisor: -1, MinorDivisor: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	data, err := w.Space.MapNew("data", KindData, 0x2000, 4096, 4096)
	if err != nil {
		b.Fatal(err)
	}
	head, err := workload.MakeListRooted(w, 100000, data, 0x2000)
	if err != nil {
		b.Fatal(err)
	}
	data.Store(0x2000, Word(head))
	w.Collect() // tenure the list
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if minor {
			w.CollectMinor()
		} else {
			w.Collect()
		}
	}
}

// --- Tenants: per-denial and per-eviction cost by tenant count ---

// fleetObjs is every fleet tenant's budget, in 8-word objects.
const fleetObjs = 4

// tenantFleet is a world holding n budgeted tenants of one policy, each
// with its whole budget allocated and rooted in its own root slots —
// the steady state of a full serving fleet.
type tenantFleet struct {
	w  *World
	ts []*Tenant
	ms []*Mutator
}

func newTenantFleet(b *testing.B, n int, policy TenantPolicy) *tenantFleet {
	b.Helper()
	w, err := NewWorld(Config{InitialHeapBytes: 16 << 20, ReserveHeapBytes: 64 << 20, GCDivisor: -1})
	if err != nil {
		b.Fatal(err)
	}
	bytes := n * fleetObjs * WordBytes
	roots, err := w.Space.MapNew("roots", KindData, 0x2000, bytes, bytes)
	if err != nil {
		b.Fatal(err)
	}
	f := &tenantFleet{w: w}
	for i := 0; i < n; i++ {
		t := w.NewTenant(TenantConfig{BudgetBytes: fleetObjs * 8 * WordBytes, Policy: policy})
		m := t.NewMutator()
		for j := 0; j < fleetObjs; j++ {
			at := Addr(0x2000 + (i*fleetObjs+j)*WordBytes)
			if _, err := m.AllocateRooted(roots, at, 8, false); err != nil {
				b.Fatal(err)
			}
		}
		f.ts, f.ms = append(f.ts, t), append(f.ms, m)
	}
	w.Collect() // flush every handle's carved remainder
	return f
}

var fleetSizes = []int{100, 10000}

// BenchmarkTenantDeny measures one fail-policy denial against a fleet
// of full budgets: the over-budget slow path, whose cost should not
// depend on how many other tenants share the heap.
func BenchmarkTenantDeny(b *testing.B) {
	for _, n := range fleetSizes {
		b.Run(fmt.Sprintf("tenants=%d", n), func(b *testing.B) {
			f := newTenantFleet(b, n, TenantFail)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.ms[i%n].Allocate(8, false); !errors.Is(err, ErrBudgetExceeded) {
					b.Fatalf("over-budget allocation: err = %v, want ErrBudgetExceeded", err)
				}
			}
		})
	}
}

// BenchmarkTenantEvict measures one eviction (the evict policy's
// over-budget allocation: flush, free every owned object, credit)
// against a fleet of full budgets. Once half the fleet is evicted a
// fresh fleet is built off the clock, so every eviction runs with
// between n/2 and n live tenants.
func BenchmarkTenantEvict(b *testing.B) {
	for _, n := range fleetSizes {
		b.Run(fmt.Sprintf("tenants=%d", n), func(b *testing.B) {
			b.StopTimer()
			var f *tenantFleet
			for i := 0; i < b.N; i++ {
				k := i % (n / 2)
				if k == 0 {
					b.StopTimer()
					f = newTenantFleet(b, n, TenantEvict)
					b.StartTimer()
				}
				if _, err := f.ms[k].Allocate(8, false); !errors.Is(err, ErrTenantEvicted) {
					b.Fatalf("over-budget allocation: err = %v, want ErrTenantEvicted", err)
				}
			}
		})
	}
}
