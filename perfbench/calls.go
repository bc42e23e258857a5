package main

import (
	"errors"

	"repro"
)

// caller makes the drivers' public calls into the collector, counting
// each as an attempted operation and, when tracing, recording it as a
// leaf span under the current request.
type caller struct {
	run    *phaseRun
	d      int
	tr     *spanRec
	parent int32
	req    int64
}

// alloc allocates nwords through m, rooted at dst[at] when dst is not
// nil. The span kind tells admitted allocations from budget denials and
// evictions.
func (c *caller) alloc(m *repro.Mutator, dst *repro.Segment, at repro.Addr, nwords int) (repro.Addr, error) {
	c.run.attempted[c.d]++
	var ts int64
	if c.tr != nil {
		ts = c.tr.now()
	}
	var a repro.Addr
	var err error
	if dst != nil {
		a, err = m.AllocateRooted(dst, at, nwords, false)
	} else {
		a, err = m.Allocate(nwords, false)
	}
	if c.tr != nil {
		k := kAlloc
		switch {
		case err == nil:
		case errors.Is(err, repro.ErrTenantEvicted):
			k = kEvict
		case errors.Is(err, repro.ErrBudgetExceeded):
			k = kDeny
		}
		c.tr.leaf(k, ts, c.parent, c.req)
	}
	return a, err
}

func (c *caller) store(m *repro.Mutator, a repro.Addr, v repro.Word) error {
	c.run.attempted[c.d]++
	if c.tr == nil {
		return m.Store(a, v)
	}
	ts := c.tr.now()
	err := m.Store(a, v)
	c.tr.leaf(kStore, ts, c.parent, c.req)
	return err
}

func (c *caller) load(m *repro.Mutator, a repro.Addr) (repro.Word, error) {
	c.run.attempted[c.d]++
	if c.tr == nil {
		return m.Load(a)
	}
	ts := c.tr.now()
	v, err := m.Load(a)
	c.tr.leaf(kLoad, ts, c.parent, c.req)
	return v, err
}

// fail records an unexpected error as a failed operation.
func (c *caller) fail(err error) { c.run.fail(c.d, err) }
