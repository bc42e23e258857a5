package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"syscall"
	"time"

	"repro"
)

// serve: an open loop of tenant requests on the serving collector
// (concurrent mark with adaptive workers, concurrent sweep, the
// servebench heap geometry). 1024 budgeted tenants, each with 16
// private root slots: half are collect-first churn sessions (rotating
// over 12 slots, never refused), a quarter fail-policy accumulators
// (refused on every request once their 16-object budget is full), a
// quarter evict-policy accumulators (the 17th allocation evicts the
// tenant, which departs; a fresh tenant arrives on the same slots at
// the next request). Set-up registers the tenants and serves each of
// them serveWarmReqs requests, so every budget is full when the
// measured phase starts: collect-first tenants force collections, fail
// tenants refuse and evict tenants depart from their first request.
// Each driver owns an equal share of the tenants and issues requests on
// a fixed schedule; a request picks one of the driver's tenants with
// the seed and makes 4 rooted 8-word allocations.

const (
	serveTenants     = 1024
	serveRate        = 800.0                         // requests per second offered, all drivers together
	serveAllocs      = 4                             // allocations per request
	serveObjWords    = 8                             // one 32-byte size class
	serveSlots       = 16                            // root slots per tenant
	serveBudgetObjs  = 16                            // every tenant's budget, in objects
	serveChurnSlots  = 12                            // collect-first slots: the second request after a collection forces the next
	serveWarmReqs    = serveBudgetObjs / serveAllocs // set-up requests per tenant: every budget full
	serveBudgetBytes = serveBudgetObjs * serveObjWords * repro.WordBytes
)

type tenantKind int

const (
	kindCollect tenantKind = iota
	kindFail
	kindEvict
)

var tenantPolicy = [...]repro.TenantPolicy{repro.TenantCollectFirst, repro.TenantFail, repro.TenantEvict}

// incarnation is one tenant object on a slot group and what the driver
// saw it do.
type incarnation struct {
	t        *repro.Tenant
	m        *repro.Mutator
	requests int64
	admitted int64
	denied   int64
	evicted  bool
}

// slotGroup is one tenant position: its root slots and the tenants
// that have lived on them, newest last.
type slotGroup struct {
	idx    int
	kind   tenantKind
	base   repro.Addr
	cursor int
	gone   bool // the newest incarnation was evicted; the next request brings a fresh one
	incs   []*incarnation
}

type serve struct {
	w      *repro.World
	roots  *repro.Segment
	groups []*slotGroup
	seed   uint64
	rate   float64
	succ   []int64 // per driver
}

func setupServe(p params, log *cycleLog) (instance, error) {
	w, err := repro.NewWorld(repro.Config{
		InitialHeapBytes: 8 << 20, ReserveHeapBytes: 64 << 20,
		GCDivisor: 16, ConcurrentMark: true, MarkQuantum: 4096,
		ConcurrentSweep: true,
	})
	if err != nil {
		return nil, err
	}
	w.SetCollectionHook(log.hook)
	n := serveTenants
	rate := serveRate
	if p.size < 1 {
		n, rate = 64, 400
	}
	bytes := n * serveSlots * repro.WordBytes
	roots, err := w.Space.MapNew("roots", repro.KindData, rootBase, bytes, bytes)
	if err != nil {
		return nil, err
	}
	s := &serve{w: w, roots: roots, seed: p.seed, rate: rate, succ: make([]int64, p.drivers)}
	for i := 0; i < n; i++ {
		g := &slotGroup{idx: i, kind: kindCollect, base: rootBase + repro.Addr(i*serveSlots*repro.WordBytes)}
		switch i % 4 {
		case 2:
			g.kind = kindFail
		case 3:
			g.kind = kindEvict
		}
		g.arrive(w)
		s.groups = append(s.groups, g)
	}
	run := newPhaseRun(p.drivers, false)
	parallel(p.drivers, func(d int) {
		cl := &caller{run: run, d: d, parent: -1}
		for r := 0; r < serveWarmReqs; r++ {
			for i := d; i < len(s.groups); i += p.drivers {
				if s.request(cl, s.groups[i]) {
					cl.fail(fmt.Errorf("serve: set-up request %d of tenant %d refused", r, i))
				}
			}
		}
	})
	if err := run.firstErr(); err != nil {
		return nil, err
	}
	return s, nil
}

// arrive registers a fresh tenant and its handle on the group's slots.
func (g *slotGroup) arrive(w *repro.World) {
	t := w.NewTenant(repro.TenantConfig{
		Name:        fmt.Sprintf("t%d.%d", g.idx, len(g.incs)),
		BudgetBytes: serveBudgetBytes,
		Policy:      tenantPolicy[g.kind],
	})
	g.incs = append(g.incs, &incarnation{t: t, m: t.NewMutator()})
	g.cursor, g.gone = 0, false
}

func (s *serve) world() *repro.World { return s.w }

func (s *serve) mutators() []*repro.Mutator {
	var ms []*repro.Mutator
	for _, g := range s.groups {
		for _, in := range g.incs {
			ms = append(ms, in.m)
		}
	}
	return ms
}

func (s *serve) allocated() int64 {
	var n int64
	for _, v := range s.succ {
		n += v
	}
	return n
}

// request serves one request on group g. It reports whether the
// request was refused (a denial or the eviction).
func (s *serve) request(c *caller, g *slotGroup) (refused bool) {
	if g.gone {
		var ts int64
		if c.tr != nil {
			ts = c.tr.now()
		}
		g.arrive(s.w)
		if c.tr != nil {
			c.tr.leaf(kArrive, ts, c.parent, c.req)
		}
	}
	in := g.incs[len(g.incs)-1]
	in.requests++
	for i := 0; i < serveAllocs; i++ {
		slot := g.cursor
		if g.kind == kindCollect {
			slot %= serveChurnSlots
		}
		_, err := c.alloc(in.m, s.roots, g.base+repro.Addr(slot*repro.WordBytes), serveObjWords)
		switch {
		case err == nil:
			in.admitted++
			s.succ[c.d]++
			g.cursor++
		case errors.Is(err, repro.ErrTenantEvicted):
			in.evicted, g.gone = true, true
			// The eviction freed every object the tenant owned; clear
			// its slots so no root keeps pointing at reused memory.
			for j := 0; j < serveSlots; j++ {
				if err := c.store(in.m, g.base+repro.Addr(j*repro.WordBytes), 0); err != nil {
					c.fail(err)
				}
			}
			return true
		case errors.Is(err, repro.ErrBudgetExceeded):
			in.denied++
			return true
		default:
			c.fail(err)
			return true
		}
	}
	return false
}

// due returns when driver d's j-th request is due, in nanoseconds from
// the phase start: each driver offers rate/drivers requests per second,
// the drivers' schedules interleaved evenly.
func dueNs(j int64, d, drivers int, rate float64) int64 {
	per := float64(drivers) / rate
	return int64((float64(j) + float64(d)/float64(drivers)) * per * 1e9)
}

func (s *serve) drive(dur time.Duration, run *phaseRun) {
	parallel(run.drivers, func(d int) {
		tr := run.recs[d]
		// Driver d owns every drivers-th group, so each driver's share
		// holds the same mix of kinds.
		var mine []*slotGroup
		for i := d; i < len(s.groups); i += run.drivers {
			mine = append(mine, s.groups[i])
		}
		rng := rand.New(rand.NewPCG(s.seed, 0x5e7e+uint64(d)))
		for j := int64(0); ; j++ {
			due := dueNs(j, d, run.drivers, s.rate)
			if due >= int64(dur) {
				break
			}
			g := mine[rng.IntN(len(mine))]
			if wait := due - run.now(); wait > 0 {
				// A blocking nanosleep wakes within tens of
				// microseconds; the runtime's timers can overshoot by
				// a millisecond, which would swamp the service time.
				ts := syscall.NsecToTimespec(wait)
				syscall.Nanosleep(&ts, nil)
			}
			start := run.now()
			req := j*int64(run.drivers) + int64(d)
			cl := &caller{run: run, d: d, tr: tr, parent: -1, req: req}
			if tr != nil {
				cl.parent = tr.open(kRequest, req, -1)
			}
			before := s.succ[d]
			refused := s.request(cl, g)
			end := run.now()
			if tr != nil {
				tr.close(cl.parent, kRequest, start)
			}
			if refused {
				run.refused[d]++
			}
			run.late[d].add(float64(start-due) / 1e6)
			run.reqLat[d].addAt(float64(end-due)/1e6, end)
			run.prog[d].reqs.Add(1)
			run.prog[d].allocs.Add(s.succ[d] - before)
		}
	})
}

// replay returns what the tape admits for one incarnation: a
// collect-first tenant is never refused; a fail tenant admits its
// budget and is then refused once per request; an evict tenant admits
// its budget and is evicted by the request after.
func replay(kind tenantKind, requests int64) (admitted, denied int64, evicted bool) {
	full := int64(serveBudgetObjs / serveAllocs) // requests that fill the budget
	switch {
	case kind == kindCollect || requests <= full:
		return requests * serveAllocs, 0, false
	case kind == kindFail:
		return serveBudgetObjs, requests - full, false
	default:
		return serveBudgetObjs, 0, true
	}
}

// check compares every tenant's counters with the replay of the
// requests it received and with what the driver saw, and checks that
// every live tenant's budget charge equals the bytes the allocator
// still attributes to it.
func (s *serve) check(ck *checks) uint64 {
	bad, drift := 0, 0
	var first string
	var objs []repro.Addr
	for _, g := range s.groups {
		for _, in := range g.incs {
			st := in.t.Stats()
			adm, den, ev := replay(g.kind, in.requests)
			if in.admitted != adm || in.denied != den || in.evicted != ev ||
				int64(st.AllocatedObjects) != adm || int64(st.BudgetDenials) != den || st.Evicted != ev {
				if bad == 0 {
					first = fmt.Sprintf("tenant %s after %d requests: driver saw %d/%d/%v, stats %d/%d/%v, replay %d/%d/%v",
						in.t.Name(), in.requests, in.admitted, in.denied, in.evicted,
						st.AllocatedObjects, st.BudgetDenials, st.Evicted, adm, den, ev)
				}
				bad++
			}
			if !st.Evicted && st.LiveBytes != in.t.OwnedBytes() {
				drift++
			}
		}
		for j := 0; j < serveSlots; j++ {
			v, err := s.w.Load(g.base + repro.Addr(j*repro.WordBytes))
			ck.expect(err == nil, "load root slot: %v", err)
			objs = append(objs, repro.Addr(v))
		}
	}
	ck.expect(bad == 0, "%d tenants differ from the replay of their tape; first: %s", bad, first)
	ck.expect(drift == 0, "%d live tenants with LiveBytes != OwnedBytes at settle", drift)
	return reachedBytes(s.w, objs)
}

// backlog reports whether the generator fell steadily behind: the
// median lateness of the last quarter of requests exceeds the first
// quarter's by more than backlogMs. lateByDue must be in due order.
func backlog(lateByDue []float64) (bool, float64, float64) {
	q := len(lateByDue) / 4
	if q == 0 {
		return false, 0, 0
	}
	first, last := median(lateByDue[:q]), median(lateByDue[len(lateByDue)-q:])
	return last-first > backlogMs, first, last
}

// backlogMs is how much later the last quarter's requests may start
// than the first quarter's before the run counts as not steady.
const backlogMs = 20.0
