package main

import (
	"sync"
	"syscall"
	"time"

	"repro"
)

// What the program already reports, read through its public API: the
// collection hook's per-cycle CollectionStats and the metrics registry.

// cycleLog keeps the CollectionStats of every cycle that completes
// while it is on.
type cycleLog struct {
	mu     sync.Mutex
	on     bool
	base   time.Time
	cycles []repro.CollectionStats
	at     []int64 // when each cycle completed, ns since base
}

func (l *cycleLog) hook(st repro.CollectionStats) {
	l.mu.Lock()
	if l.on {
		l.cycles = append(l.cycles, st)
		l.at = append(l.at, int64(time.Since(l.base)))
	}
	l.mu.Unlock()
}

func (l *cycleLog) start(base time.Time) {
	l.mu.Lock()
	l.on, l.base, l.cycles, l.at = true, base, nil, nil
	l.mu.Unlock()
}

// stop ends logging and returns the logged cycles with their
// mutator-visible stops in milliseconds, one sample per cycle: its
// Duration, which for a concurrent cycle is the sum of its snapshot and
// final pauses. (Counted as two samples, a concurrent cycle's short
// snapshot and long final pause would put the median exactly between
// the two modes, where it jumps from run to run.)
func (l *cycleLog) stop() ([]repro.CollectionStats, *samples) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.on = false
	s := &samples{}
	for i, c := range l.cycles {
		s.addAt(float64(c.Duration.Nanoseconds())/1e6, l.at[i])
	}
	return l.cycles, s
}

// counters is a MetricsSnapshot keyed by name.
type counters map[string]int64

func snapshot(w *repro.World) counters {
	c := counters{}
	for _, s := range w.MetricsSnapshot() {
		c[s.Name] = s.Value
	}
	return c
}

// delta returns how much a counter grew between two snapshots.
func delta(a, b counters, name string) float64 { return float64(b[name] - a[name]) }

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sumMutatorStats adds up the handles' allocation counters.
func sumMutatorStats(ms []*repro.Mutator) repro.MutatorStats {
	var t repro.MutatorStats
	for _, m := range ms {
		s := m.Stats()
		t.FastAllocs += s.FastAllocs
		t.SlowAllocs += s.SlowAllocs
		t.Refills += s.Refills
		t.RunSlots += s.RunSlots
		t.FlushedSlots += s.FlushedSlots
	}
	return t
}

// settle lands any in-flight concurrent cycle, runs a fresh full
// collection and finishes its deferred sweep, so live bytes and
// per-tenant accounting are final.
func settle(w *repro.World) {
	if w.ConcurrentActive() {
		w.FinishConcurrentCycle()
	}
	w.Collect()
	w.FinishSweep()
}

// reachedBytes sums the slot sizes of the distinct heap objects whose
// addresses the given root words hold: what the benchmark's own tape
// keeps reachable. Callers run it on a settled world.
func reachedBytes(w *repro.World, objs []repro.Addr) uint64 {
	seen := make(map[repro.Addr]bool, len(objs))
	var b uint64
	for _, a := range objs {
		if a == 0 || seen[a] {
			continue
		}
		seen[a] = true
		words, _ := w.Heap.ObjectSpan(a)
		b += uint64(words * repro.WordBytes)
	}
	return b
}
