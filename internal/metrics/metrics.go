// Package metrics is the repo's deterministic observability layer:
// counters and gauges with a snapshot API, designed to be safe inside
// the discrete-event simulator.
//
// Determinism rules (enforced by the detrand/simclock analyzers, whose
// scopes cover this package):
//
//   - No wall clock. The package never calls time.Now; anything
//     time-shaped that gets recorded must be derived from the
//     simulator's virtual clock by the caller.
//   - No randomness. Sampling decisions, if ever needed, belong to the
//     caller's seeded rng.
//   - Snapshots are sorted by name, so rendering a snapshot is
//     byte-stable across runs. Counters and gauges stay deterministic
//     under concurrency too (integer addition commutes).
//
// All instrument methods are nil-receiver-safe so call sites can be
// instrumented unconditionally and cost nothing when metrics are off;
// hot paths should resolve instruments once (at construction) rather
// than looking them up per operation.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64.
type Counter struct{ v atomic.Int64 }

// Inc adds 1. Safe on a nil receiver (no-op).
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. Safe on a nil receiver (no-op).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable int64 level (queue depth, pool size, bytes held).
type Gauge struct{ v atomic.Int64 }

// Set stores n. Safe on a nil receiver (no-op).
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adjusts the gauge by delta. Safe on a nil receiver (no-op).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Max raises the gauge to n if n is larger (a high-water mark).
// Safe on a nil receiver (no-op).
func (g *Gauge) Max(n int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current level (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry holds named instruments. The zero value is not usable; use
// New. A nil *Registry is safe: all lookups return nil instruments,
// whose methods are no-ops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
	}
}

// Counter returns the named counter, creating it on first use.
// Returns nil (a no-op instrument) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
// Returns nil (a no-op instrument) on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Value is one counter or gauge reading.
type Value struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Snapshot is a point-in-time, name-sorted view of a registry.
type Snapshot struct {
	Counters []Value `json:"counters,omitempty"`
	Gauges   []Value `json:"gauges,omitempty"`
}

// Snapshot captures the registry's current state, sorted by name.
// An empty snapshot is returned for a nil registry.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters = append(s.Counters, Value{name, c.Value()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, Value{name, g.Value()})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	return s
}

// String renders the snapshot as an aligned text table.
func (s Snapshot) String() string {
	var b strings.Builder
	w := 0
	for _, v := range s.Counters {
		if len(v.Name) > w {
			w = len(v.Name)
		}
	}
	for _, v := range s.Gauges {
		if len(v.Name) > w {
			w = len(v.Name)
		}
	}
	for _, v := range s.Counters {
		fmt.Fprintf(&b, "%-*s  %d\n", w, v.Name, v.Value)
	}
	for _, v := range s.Gauges {
		fmt.Fprintf(&b, "%-*s  %d (gauge)\n", w, v.Name, v.Value)
	}
	return b.String()
}
