package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro"
)

// graph: set-up builds a fixed live graph — one complete binary tree of
// 4-word nodes per driver, each node holding a random-integer payload —
// on a mostly-concurrent collector (concurrent mark with adaptive
// workers, concurrent sweep). In the measured closed loop each step
// walks from the driver's root with Load, allocates a replacement for
// the node it reached plus short-lived temporaries, copies the old
// node's children into the replacement with Store and links it into the
// parent with Store. The old node dies, so the live set stays constant
// and every cycle re-marks the whole graph.
//
// Node layout: word 0 left child, word 1 right child, word 2 payload,
// word 3 the node's id (1 for the root, 2i and 2i+1 for i's children).

const (
	graphDepth    = 15   // levels per tree: 2^15-1 nodes per driver
	graphPerReq   = 2048 // steps per unit of work
	graphTemps    = 2    // short-lived temporaries per step
	graphNodeSize = 4
)

type graphDriver struct {
	m     *repro.Mutator
	roots *repro.Segment
	rng   *rand.Rand
	root  repro.Addr // root slot; the scratch slot follows it
	depth int
	// The benchmark's own copy of the tree: node address and payload
	// by id.
	addr    []repro.Addr
	payload []uint32
	succ    int64
}

type graph struct {
	w  *repro.World
	ds []*graphDriver
}

func setupGraph(p params, log *cycleLog) (instance, error) {
	w, err := repro.NewWorld(repro.Config{
		InitialHeapBytes: 4 << 20,
		GCDivisor:        8,
		ConcurrentMark:   true,
		ConcurrentSweep:  true,
	})
	if err != nil {
		return nil, err
	}
	w.SetCollectionHook(log.hook)
	roots, err := w.Space.MapNew("roots", repro.KindData, rootBase, p.drivers*8, p.drivers*8)
	if err != nil {
		return nil, err
	}
	depth := graphDepth
	if p.size < 1 {
		depth = 8
	}
	g := &graph{w: w}
	for d := 0; d < p.drivers; d++ {
		n := 1 << depth
		g.ds = append(g.ds, &graphDriver{
			m:       w.NewMutator(),
			roots:   roots,
			rng:     rand.New(rand.NewPCG(p.seed, 0x9a4f+uint64(d))),
			root:    rootBase + repro.Addr(d*8),
			depth:   depth,
			addr:    make([]repro.Addr, n),
			payload: make([]uint32, n),
		})
	}
	errs := make([]error, p.drivers)
	parallel(p.drivers, func(d int) { errs[d] = g.ds[d].build() })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return g, nil
}

// newNode allocates a node rooted in the scratch slot and fills it.
func (gd *graphDriver) newNode(id int, left, right repro.Word) (repro.Addr, error) {
	a, err := gd.m.AllocateRooted(gd.roots, gd.root+4, graphNodeSize, false)
	if err != nil {
		return 0, err
	}
	gd.succ++
	pay := gd.rng.Uint32()
	for i, v := range [graphNodeSize]repro.Word{left, right, repro.Word(pay), repro.Word(id)} {
		if err := gd.m.Store(a+repro.Addr(4*i), v); err != nil {
			return 0, err
		}
	}
	gd.addr[id], gd.payload[id] = a, pay
	return a, nil
}

// build allocates the tree top-down: each child is linked into its
// already-reachable parent before the next allocation replaces it in
// the scratch slot.
func (gd *graphDriver) build() error {
	a, err := gd.newNode(1, 0, 0)
	if err != nil {
		return err
	}
	if err := gd.m.Store(gd.root, repro.Word(a)); err != nil {
		return err
	}
	for id := 2; id < len(gd.addr); id++ {
		c, err := gd.newNode(id, 0, 0)
		if err != nil {
			return err
		}
		if err := gd.m.Store(gd.addr[id/2]+repro.Addr(4*(id%2)), repro.Word(c)); err != nil {
			return err
		}
	}
	return nil
}

func (g *graph) world() *repro.World { return g.w }

func (g *graph) mutators() []*repro.Mutator {
	ms := make([]*repro.Mutator, len(g.ds))
	for i, d := range g.ds {
		ms[i] = d.m
	}
	return ms
}

func (g *graph) allocated() int64 {
	var n int64
	for _, d := range g.ds {
		n += d.succ
	}
	return n
}

// step walks to a random non-root node, replaces it and allocates the
// temporaries. It returns how many allocations succeeded.
func (gd *graphDriver) step(c *caller) int64 {
	m := gd.m
	before := gd.succ
	fail := func(err error) int64 {
		c.fail(err)
		return gd.succ - before
	}
	target := 1 + gd.rng.IntN(gd.depth-1) // depth of the replaced node
	w, err := c.load(m, gd.root)
	if err != nil {
		return fail(err)
	}
	p, id := repro.Addr(w), 1
	for lvl := 1; lvl < target; lvl++ {
		bit := gd.rng.IntN(2)
		if w, err = c.load(m, p+repro.Addr(4*bit)); err != nil {
			return fail(err)
		}
		p, id = repro.Addr(w), 2*id+bit
	}
	bit := gd.rng.IntN(2)
	cid := 2*id + bit
	if w, err = c.load(m, p+repro.Addr(4*bit)); err != nil {
		return fail(err)
	}
	x := repro.Addr(w)
	if x != gd.addr[cid] || p != gd.addr[id] {
		return fail(fmt.Errorf("graph: walk to node %d read %#x, tree holds %#x", cid, uint32(x), uint32(gd.addr[cid])))
	}
	l, err := c.load(m, x)
	if err != nil {
		return fail(err)
	}
	r, err := c.load(m, x+4)
	if err != nil {
		return fail(err)
	}
	nd, err := c.alloc(m, gd.roots, gd.root+4, graphNodeSize)
	if err != nil {
		return fail(err)
	}
	gd.succ++
	pay := gd.rng.Uint32()
	for i, v := range [graphNodeSize]repro.Word{l, r, repro.Word(pay), repro.Word(cid)} {
		if err := c.store(m, nd+repro.Addr(4*i), v); err != nil {
			return fail(err)
		}
	}
	if err := c.store(m, p+repro.Addr(4*bit), repro.Word(nd)); err != nil {
		return fail(err)
	}
	gd.addr[cid], gd.payload[cid] = nd, pay
	for i := 0; i < graphTemps; i++ {
		if _, err := c.alloc(m, nil, 0, 2+gd.rng.IntN(7)); err != nil {
			return fail(err)
		}
		gd.succ++
	}
	return gd.succ - before
}

func (g *graph) drive(dur time.Duration, run *phaseRun) {
	deadline := int64(dur)
	parallel(run.drivers, func(d int) {
		gd, tr := g.ds[d], run.recs[d]
		loop := int32(-1)
		if tr != nil {
			loop = tr.open(kLoop, 0, -1)
		}
		for req := int64(0); ; req++ {
			t0 := run.now()
			if t0 >= deadline {
				break
			}
			cl := &caller{run: run, d: d, tr: tr, parent: loop, req: req}
			if tr != nil {
				cl.parent = tr.open(kRequest, req, loop)
			}
			for i := 0; i < graphPerReq; i++ {
				run.prog[d].allocs.Add(gd.step(cl))
			}
			t1 := run.now()
			if tr != nil {
				tr.close(cl.parent, kRequest, t0)
			}
			run.reqLat[d].addAt(float64(t1-t0)/1e6, t1)
			run.prog[d].reqs.Add(1)
		}
		if tr != nil {
			tr.close(loop, kLoop, 0)
		}
	})
}

// check walks every tree through the world's Load and compares it with
// the benchmark's own copy: every node still allocated, at the address
// the copy holds, with its id and payload intact.
func (g *graph) check(ck *checks) uint64 {
	w := g.w
	var objs []repro.Addr
	for d, gd := range g.ds {
		bad := 0
		var first string
		v, err := w.Load(gd.root)
		if err != nil || repro.Addr(v) != gd.addr[1] {
			ck.expect(false, "graph %d: root slot %#x, want %#x (%v)", d, uint32(v), uint32(gd.addr[1]), err)
			continue
		}
		for id := 1; id < len(gd.addr); id++ {
			a := gd.addr[id]
			var words [graphNodeSize]repro.Word
			err = nil
			for i := range words {
				var e error
				if words[i], e = w.Load(a + repro.Addr(4*i)); e != nil {
					err = e
				}
			}
			want := [graphNodeSize]repro.Word{0, 0, repro.Word(gd.payload[id]), repro.Word(id)}
			if 2*id+1 < len(gd.addr) {
				want[0], want[1] = repro.Word(gd.addr[2*id]), repro.Word(gd.addr[2*id+1])
			}
			if err != nil || words != want || !w.Heap.IsAllocated(a) {
				if bad == 0 {
					first = fmt.Sprintf("node %d at %#x holds %v, want %v (allocated %v, %v)",
						id, uint32(a), words, want, w.Heap.IsAllocated(a), err)
				}
				bad++
			}
			objs = append(objs, a)
		}
		ck.expect(bad == 0, "graph %d: %d of %d nodes wrong after settle; first: %s", d, bad, len(gd.addr)-1, first)
	}
	return reachedBytes(w, objs)
}
