package metrics

import (
	"encoding/json"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("flows")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("flows") != c {
		t.Error("same name must return the same counter")
	}

	g := r.Gauge("pending")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Errorf("gauge = %d, want 5", got)
	}
	g.Max(3)
	if g.Value() != 5 {
		t.Error("Max must not lower the gauge")
	}
	g.Max(9)
	if g.Value() != 9 {
		t.Error("Max must raise the gauge")
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Error("nil counter must read 0")
	}
	g := r.Gauge("y")
	g.Set(3)
	g.Max(9)
	if g.Value() != 0 {
		t.Error("nil gauge must read 0")
	}
	if s := r.Snapshot(); len(s.Counters)+len(s.Gauges) != 0 {
		t.Error("nil registry snapshot must be empty")
	}
}

// TestSnapshotDeterministic: two registries fed the same updates in
// different orders render identical snapshots — the property the
// sweep's byte-identity contract relies on.
func TestSnapshotDeterministic(t *testing.T) {
	build := func(order []string) string {
		r := New()
		for _, name := range order {
			r.Counter(name).Add(int64(len(name)))
		}
		r.Gauge("g").Set(3)
		js, err := json.Marshal(r.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return string(js) + r.Snapshot().String()
	}
	a := build([]string{"alpha", "beta", "gamma"})
	b := build([]string{"gamma", "alpha", "beta"})
	if a != b {
		t.Errorf("snapshot depends on registration order:\n%s\nvs\n%s", a, b)
	}
}

// TestConcurrentCounters: integer instruments stay exact under
// concurrent updates (the campaign worker-pool case).
func TestConcurrentCounters(t *testing.T) {
	r := New()
	c := r.Counter("n")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
}

// TestInstrumentAllocFree: pre-resolved instruments must not allocate
// per update — the hot-path contract.
func TestInstrumentAllocFree(t *testing.T) {
	r := New()
	c := r.Counter("c")
	g := r.Gauge("g")
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(4)
	}); n != 0 {
		t.Errorf("instrument updates allocate %v allocs/op, want 0", n)
	}
}
