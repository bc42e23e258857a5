package main

import (
	"math/rand/v2"
	"time"

	"repro"
)

// churn: a closed loop of mutators on a stop-the-world collector with
// lazy sweeping and a dense blacklist. Each driver replays a seeded
// allocation tape: objects of 2-16 words with an occasional large one;
// 1 in 8 is rooted in a rotating window of private root slots and the
// rest die at once; 1 in 4 carries a random-integer payload word that
// the conservative scan must reject.

const (
	churnTapeLen  = 1 << 16
	churnPerReq   = 1024 // allocations per unit of work
	churnWarmReqs = 64   // units of work per driver before measuring
	rootBase      = repro.Addr(0x2000)
)

type churnOp struct {
	words   uint16
	rooted  bool
	payload uint32 // 0: no payload store
}

type churnDriver struct {
	m      *repro.Mutator
	roots  *repro.Segment
	tape   []churnOp
	pos    int
	cursor int
	window repro.Addr // first window slot
	slots  int
	succ   int64
}

type churn struct {
	w     *repro.World
	roots *repro.Segment
	ds    []*churnDriver
}

// churnTape generates one driver's allocation tape from the seed.
func churnTape(seed uint64, d int) []churnOp {
	rng := rand.New(rand.NewPCG(seed, 0xc4017e+uint64(d)))
	tape := make([]churnOp, churnTapeLen)
	for i := range tape {
		op := churnOp{words: uint16(2 + rng.IntN(15))}
		if rng.IntN(2048) == 0 {
			op.words = uint16(513 + rng.IntN(1024))
		}
		op.rooted = rng.IntN(8) == 0
		if rng.IntN(4) == 0 {
			op.payload = rng.Uint32() | 1 // never 0, which means none
		}
		tape[i] = op
	}
	return tape
}

// setupChurn builds the world, the drivers' handles and root slots, and
// warms the heap up with churnWarmReqs units of work per driver.
func setupChurn(p params, log *cycleLog) (instance, error) {
	seed, size, drivers := p.seed, p.size, p.drivers
	// A small initial heap, so that its size follows the live set,
	// false retention and fragmentation rather than the default.
	w, err := repro.NewWorld(repro.Config{
		InitialHeapBytes: 128 << 10,
		Blacklisting:     repro.BlacklistDense,
		LazySweep:        true,
	})
	if err != nil {
		return nil, err
	}
	w.SetCollectionHook(log.hook)
	slots := 1024
	if size < 1 {
		slots = 64
	}
	// Each driver owns slots window slots plus one scratch slot.
	roots, err := w.Space.MapNew("roots", repro.KindData, rootBase, drivers*(slots+1)*4, drivers*(slots+1)*4)
	if err != nil {
		return nil, err
	}
	c := &churn{w: w, roots: roots}
	for d := 0; d < drivers; d++ {
		c.ds = append(c.ds, &churnDriver{
			m:      w.NewMutator(),
			roots:  roots,
			tape:   churnTape(seed, d),
			window: rootBase + repro.Addr(d*(slots+1)*4),
			slots:  slots,
		})
	}
	run := newPhaseRun(drivers, false)
	parallel(drivers, func(d int) {
		cl := &caller{run: run, d: d, parent: -1}
		for i := 0; i < churnWarmReqs; i++ {
			c.ds[d].request(cl)
		}
	})
	if err := run.firstErr(); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *churn) world() *repro.World { return c.w }

func (c *churn) mutators() []*repro.Mutator {
	ms := make([]*repro.Mutator, len(c.ds))
	for i, d := range c.ds {
		ms[i] = d.m
	}
	return ms
}

func (c *churn) allocated() int64 {
	var n int64
	for _, d := range c.ds {
		n += d.succ
	}
	return n
}

// request performs one unit of work: churnPerReq allocations of the
// tape, with payload stores. It returns how many allocations succeeded.
func (cd *churnDriver) request(c *caller) int64 {
	scratch := cd.window + repro.Addr(cd.slots*4)
	var n int64
	for k := 0; k < churnPerReq; k++ {
		op := cd.tape[cd.pos]
		cd.pos = (cd.pos + 1) % len(cd.tape)
		var a repro.Addr
		var err error
		switch {
		case op.rooted:
			a, err = c.alloc(cd.m, cd.roots, cd.window+repro.Addr(cd.cursor*4), int(op.words))
			cd.cursor = (cd.cursor + 1) % cd.slots
		case op.payload != 0:
			// Rooted in the scratch slot until the next payload object
			// replaces it, so the store below never lands in a slot a
			// collection has already reclaimed.
			a, err = c.alloc(cd.m, cd.roots, scratch, int(op.words))
		default:
			a, err = c.alloc(cd.m, nil, 0, int(op.words))
		}
		if err != nil {
			c.fail(err)
			continue
		}
		n++
		if op.payload != 0 {
			if err := c.store(cd.m, a, repro.Word(op.payload)); err != nil {
				c.fail(err)
			}
		}
	}
	cd.succ += n
	return n
}

func (c *churn) drive(dur time.Duration, run *phaseRun) {
	deadline := int64(dur)
	parallel(run.drivers, func(d int) {
		cd, tr := c.ds[d], run.recs[d]
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
			n := cd.request(cl)
			t1 := run.now()
			if tr != nil {
				tr.close(cl.parent, kRequest, t0)
			}
			run.reqLat[d].addAt(float64(t1-t0)/1e6, t1)
			run.prog[d].allocs.Add(n)
			run.prog[d].reqs.Add(1)
		}
		if tr != nil {
			tr.close(loop, kLoop, 0)
		}
	})
}

func (c *churn) check(ck *checks) uint64 {
	// What the tape keeps reachable: the objects in the window and
	// scratch slots. Their payload words are random integers, so any
	// further live byte is retained by a false reference.
	var objs []repro.Addr
	for _, cd := range c.ds {
		for i := 0; i <= cd.slots; i++ {
			v, err := c.w.Load(cd.window + repro.Addr(i*4))
			ck.expect(err == nil, "load root slot: %v", err)
			objs = append(objs, repro.Addr(v))
		}
	}
	return reachedBytes(c.w, objs)
}
