package core

import (
	"errors"
	"testing"

	"repro/internal/mem"
)

// Ownership op tapes: table-driven operation sequences over the
// per-block owner side arrays (alloc/owners.go), each run under eager,
// lazy and concurrent sweep in both the free-list and line profiles.
// A tape is a list of named steps applied in order to one world; every
// step checks the accounting it just changed, so a failure names the
// exact operation that broke an owner entry or a tenant's credit.

// ownerTapeConfigs: the three sweep modes × the two allocation
// profiles. GCDivisor 1 keeps allocation from triggering collections,
// so the tapes decide exactly when every barrier runs.
var ownerTapeConfigs = map[string]Config{
	"eager":      {GCDivisor: 1},
	"lazy":       {GCDivisor: 1, LazySweep: true},
	"conc":       {GCDivisor: 1, ConcurrentMark: true, ConcurrentSweep: true},
	"eager-line": {GCDivisor: 1, LineAlloc: true},
	"lazy-line":  {GCDivisor: 1, LazySweep: true, LineAlloc: true},
	"conc-line":  {GCDivisor: 1, ConcurrentMark: true, ConcurrentSweep: true, LineAlloc: true},
}

const (
	tapeObjWords = 8
	tapeRoots    = mem.Addr(0x2000)
	tapeSlots    = 512
)

// ownEnv is one tape's world: tenants and handles by name, and the
// objects each tenant allocated, in order, by name.
type ownEnv struct {
	cfg   Config
	w     *World
	roots *mem.Segment
	ten   map[string]*Tenant
	mut   map[string]*Mutator
	objs  map[string][]mem.Addr
	next  int // next free root slot
	saved []mem.Addr
}

type ownStep struct {
	name string
	do   func(t *testing.T, e *ownEnv)
}

type ownTape struct {
	name  string
	steps []ownStep
}

// tape builds an ownTape from alternating step names and step bodies,
// in the style of an assembler listing.
func tape(name string, steps ...any) ownTape {
	tp := ownTape{name: name}
	for i := 0; i+1 < len(steps); i += 2 {
		tp.steps = append(tp.steps, ownStep{steps[i].(string), steps[i+1].(func(*testing.T, *ownEnv))})
	}
	return tp
}

func (e *ownEnv) tenant(name string, budgetObjs uint64, p TenantPolicy) {
	t := e.w.NewTenant(TenantConfig{Name: name, BudgetBytes: budgetObjs * tapeCharge(), Policy: p})
	e.ten[name], e.mut[name] = t, t.NewMutator()
}

// alloc allocates one rooted object for tenant name.
func (e *ownEnv) alloc(name string) (mem.Addr, error) {
	slot := tapeRoots + mem.Addr(e.next*mem.WordBytes)
	p, err := e.mut[name].AllocateRooted(e.roots, slot, tapeObjWords, false)
	if err == nil {
		e.next++
		e.objs[name] = append(e.objs[name], p)
	}
	return p, err
}

func (e *ownEnv) mustAlloc(t *testing.T, name string) mem.Addr {
	t.Helper()
	p, err := e.alloc(name)
	if err != nil {
		t.Fatalf("%s allocation: %v", name, err)
	}
	return p
}

// unroot clears every root slot that holds p.
func (e *ownEnv) unroot(t *testing.T, p mem.Addr) {
	t.Helper()
	for i := 0; i < e.next; i++ {
		at := tapeRoots + mem.Addr(i*mem.WordBytes)
		if v, _ := e.w.Load(at); mem.Addr(v) == p {
			if err := e.w.Store(at, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// allocated reads the heap under the world lock: the concurrent
// configurations' background sweeper may be running.
func (e *ownEnv) allocated(p mem.Addr) bool {
	e.w.mu.Lock()
	defer e.w.mu.Unlock()
	var ok bool
	e.w.lockHeapLocked(func() { ok = e.w.Heap.IsAllocated(p) })
	return ok
}

func (e *ownEnv) owner(p mem.Addr) (int32, bool) {
	e.w.mu.Lock()
	defer e.w.mu.Unlock()
	var id int32
	var ok bool
	e.w.lockHeapLocked(func() { id, ok = e.w.Heap.OwnerOf(p) })
	return id, ok
}

// cachedBytes is what tenant name's handle holds carved but not yet
// handed out: tagged at the carve, charged only when consumed.
func (e *ownEnv) cachedBytes(name string) uint64 {
	e.w.mu.Lock()
	defer e.w.mu.Unlock()
	var n uint64
	for _, c := range e.mut[name].caches {
		slots := len(c.run) - c.next
		if c.cursor < c.limit {
			slots += int(c.limit-c.cursor) / (c.words * mem.WordBytes)
		}
		n += uint64(slots*c.words) * mem.WordBytes
	}
	return n
}

// expectLive checks a tenant's live counter against n objects, and the
// bytes the owner arrays attribute to it against the same n objects
// plus its handle's carved slots.
func (e *ownEnv) expectLive(t *testing.T, name string, n uint64) {
	t.Helper()
	ten := e.ten[name]
	if got := ten.Stats().LiveBytes; got != n*tapeCharge() {
		t.Fatalf("%s LiveBytes = %d, want %d", name, got, n*tapeCharge())
	}
	if got, want := ten.OwnedBytes(), n*tapeCharge()+e.cachedBytes(name); got != want {
		t.Fatalf("%s OwnedBytes = %d, want %d", name, got, want)
	}
}

func (e *ownEnv) expectReclaimed(t *testing.T, name string, n uint64) {
	t.Helper()
	st := e.ten[name].Stats()
	if st.ReclaimedObjects != n || st.ReclaimedBytes != n*tapeCharge() {
		t.Fatalf("%s reclaimed %d objects / %d bytes, want %d / %d",
			name, st.ReclaimedObjects, st.ReclaimedBytes, n, n*tapeCharge())
	}
}

func tapeCharge() uint64 { return tenantChargeBytes(tapeObjWords) }

// settle lands every deferred sweep and audits the heap.
func (e *ownEnv) settle(t *testing.T) {
	t.Helper()
	e.w.FinishSweep()
	if err := e.w.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

var ownerTapes = []ownTape{
	tape("fail tenant admitted over a pending-sweep dead object",
		"fill the budget", func(t *testing.T, e *ownEnv) {
			e.tenant("T", 8, TenantFail)
			for i := 0; i < 8; i++ {
				e.mustAlloc(t, "T")
			}
			e.expectLive(t, "T", 8)
		},
		"drop one and collect without finishing the sweep", func(t *testing.T, e *ownEnv) {
			e.unroot(t, e.objs["T"][0])
			e.w.Collect()
			if e.cfg.LazySweep && !e.cfg.ConcurrentSweep && e.w.Heap.SweepPending() == 0 {
				t.Fatal("lazy barrier left no pending block; the tape needs one")
			}
			// The barrier condemned the object, so its owner is credited
			// now, before any deferred sweep clears the alloc bit.
			e.expectReclaimed(t, "T", 1)
			e.expectLive(t, "T", 7)
			if _, ok := e.owner(e.objs["T"][0]); ok {
				t.Fatal("condemned object still carries an owner")
			}
		},
		"the next charge is admitted", func(t *testing.T, e *ownEnv) {
			e.mustAlloc(t, "T")
			if d := e.ten["T"].Stats().BudgetDenials; d != 0 {
				t.Fatalf("denials = %d, want 0", d)
			}
			e.expectLive(t, "T", 8)
		},
		"and the one after is denied", func(t *testing.T, e *ownEnv) {
			if _, err := e.alloc("T"); !errors.Is(err, ErrBudgetExceeded) {
				t.Fatalf("err = %v, want ErrBudgetExceeded", err)
			}
			e.settle(t)
			e.expectLive(t, "T", 8)
		},
	),
	tape("slot freed by the sweep and recarved credits its first owner once",
		"A allocates and drops an object", func(t *testing.T, e *ownEnv) {
			e.tenant("A", 64, TenantFail)
			e.tenant("B", 512, TenantFail)
			e.saved = []mem.Addr{e.mustAlloc(t, "A")}
			e.unroot(t, e.saved[0])
		},
		"the sweep credits A", func(t *testing.T, e *ownEnv) {
			e.w.Collect()
			e.settle(t)
			e.expectReclaimed(t, "A", 1)
			e.expectLive(t, "A", 0)
		},
		"B is carved the same slot", func(t *testing.T, e *ownEnv) {
			x := e.saved[0]
			for i := 0; i < 256; i++ {
				if e.mustAlloc(t, "B") == x {
					if id, ok := e.owner(x); !ok || id != e.ten["B"].ID() {
						t.Fatalf("recarved slot owner = %d/%v, want B (%d)", id, ok, e.ten["B"].ID())
					}
					return
				}
			}
			t.Fatalf("slot %#x was not recarved within 256 allocations", uint32(x))
		},
		"collections leave A credited exactly once", func(t *testing.T, e *ownEnv) {
			e.w.Collect()
			e.settle(t)
			e.expectReclaimed(t, "A", 1)
			e.expectReclaimed(t, "B", 0)
			e.expectLive(t, "B", uint64(len(e.objs["B"])))
		},
		"B's death credits B, not A", func(t *testing.T, e *ownEnv) {
			e.unroot(t, e.saved[0])
			e.w.Collect()
			e.settle(t)
			e.expectReclaimed(t, "A", 1)
			e.expectReclaimed(t, "B", 1)
			e.expectLive(t, "B", uint64(len(e.objs["B"])-1))
		},
	),
	tape("evicting a tenant frees only its slots in shared blocks",
		"victim carved into the bystander's block", func(t *testing.T, e *ownEnv) {
			e.tenant("V", 8, TenantEvict)
			e.tenant("B", 64, TenantFail)
			for i := 0; i < 8; i++ {
				e.mustAlloc(t, "B")
			}
			// The collection flushes B's carved remainder, leaving its
			// block partly free: V's first carve lands there.
			e.w.Collect()
			for i := 0; i < 8; i++ {
				e.mustAlloc(t, "V")
			}
			pages := map[mem.Addr]bool{}
			for _, p := range e.objs["B"] {
				pages[p/mem.PageBytes] = true
			}
			shared := false
			for _, p := range e.objs["V"] {
				shared = shared || pages[p/mem.PageBytes]
			}
			if !shared {
				t.Fatal("victim and bystander share no block; the tape needs one")
			}
		},
		"the victim drops two and a collection condemns them", func(t *testing.T, e *ownEnv) {
			e.unroot(t, e.objs["V"][0])
			e.unroot(t, e.objs["V"][1])
			e.w.Collect()
			e.expectReclaimed(t, "V", 2)
			e.expectLive(t, "V", 6)
		},
		"the victim's over-budget charge evicts it", func(t *testing.T, e *ownEnv) {
			for i := 0; ; i++ {
				_, err := e.alloc("V")
				if errors.Is(err, ErrTenantEvicted) {
					break
				}
				if err != nil || i > 2 {
					t.Fatalf("allocation %d after the drop: err = %v, want eviction on the third", i, err)
				}
			}
			e.expectReclaimed(t, "V", 10)
			e.expectLive(t, "V", 0)
			for _, p := range e.objs["V"] {
				if e.allocated(p) {
					t.Fatalf("victim object %#x survived eviction", uint32(p))
				}
			}
			for _, p := range e.objs["B"] {
				if !e.allocated(p) {
					t.Fatalf("bystander object %#x freed by the eviction", uint32(p))
				}
			}
			e.expectReclaimed(t, "B", 0)
			e.expectLive(t, "B", 8)
		},
		"the bystander stays exact after the victim's roots go", func(t *testing.T, e *ownEnv) {
			for _, p := range e.objs["V"] {
				e.unroot(t, p)
			}
			e.w.Collect()
			e.settle(t)
			e.expectReclaimed(t, "B", 0)
			e.expectLive(t, "B", 8)
			e.expectReclaimed(t, "V", 10)
		},
	),
	tape("safepoint flush of a carved run leaves no owner and credits nobody",
		"carve", func(t *testing.T, e *ownEnv) {
			e.tenant("T", 64, TenantFail)
			e.mustAlloc(t, "T")
			m := e.mut["T"]
			e.w.mu.Lock()
			for _, c := range m.caches {
				e.saved = append(e.saved, c.run[c.next:]...)
				for p := c.cursor; p < c.limit; p += mem.Addr(c.words * mem.WordBytes) {
					e.saved = append(e.saved, p)
				}
			}
			e.w.mu.Unlock()
			if len(e.saved) == 0 {
				t.Fatal("the carve cached no unconsumed slots")
			}
			for _, p := range e.saved {
				if id, ok := e.owner(p); !ok || id != e.ten["T"].ID() {
					t.Fatalf("carved slot %#x owner = %d/%v, want T", uint32(p), id, ok)
				}
			}
			if got := e.ten["T"].Stats().LiveBytes; got != tapeCharge() {
				t.Fatalf("LiveBytes = %d, want one charge (carved slots are not charged)", got)
			}
		},
		"a collection's safepoint flushes the run", func(t *testing.T, e *ownEnv) {
			e.w.Collect()
			for _, p := range e.saved {
				if id, ok := e.owner(p); ok {
					t.Fatalf("flushed slot %#x still owned by %d", uint32(p), id)
				}
			}
			e.expectReclaimed(t, "T", 0)
			e.expectLive(t, "T", 1)
			e.settle(t)
			e.expectLive(t, "T", 1)
		},
	),
}

func TestOwnershipTapes(t *testing.T) {
	for _, tp := range ownerTapes {
		for cname, cfg := range ownerTapeConfigs {
			t.Run(tp.name+"/"+cname, func(t *testing.T) {
				w := newWorld(t, cfg)
				e := &ownEnv{
					cfg:   w.Config(),
					w:     w,
					roots: addData(t, w, "roots", tapeRoots, tapeSlots*mem.WordBytes),
					ten:   map[string]*Tenant{},
					mut:   map[string]*Mutator{},
					objs:  map[string][]mem.Addr{},
				}
				for _, st := range tp.steps {
					if !t.Run(st.name, func(t *testing.T) { st.do(t, e) }) {
						return
					}
				}
			})
		}
	}
}
