package metrics

import (
	"reflect"
	"testing"
)

func TestAbsorbCountersGauges(t *testing.T) {
	mk := func(base int64) *Registry {
		r := New()
		r.Counter("c.flows").Add(10 * base)
		r.Gauge("g.blocked").Set(base)
		return r
	}
	dst := New()
	dst.Absorb(mk(1).Snapshot())
	dst.Absorb(mk(3).Snapshot())
	if got := dst.Counter("c.flows").Value(); got != 40 {
		t.Fatalf("counter = %d, want 40", got)
	}
	if got := dst.Gauge("g.blocked").Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}

	var nilReg *Registry
	nilReg.Absorb(mk(1).Snapshot())
	if s := nilReg.Snapshot(); len(s.Counters)+len(s.Gauges) != 0 {
		t.Fatalf("nil registry absorbed %v", s)
	}
}

// TestAbsorbEqualsDirect: absorbing per-shard snapshots must equal one
// registry having observed everything — the invariant the fleet's
// WithMetrics option relies on.
func TestAbsorbEqualsDirect(t *testing.T) {
	direct := New()
	merged := New()
	for shard := 0; shard < 4; shard++ {
		part := New()
		for i := 0; i < 5; i++ {
			v := int64(shard*5 + i)
			direct.Counter("c").Inc()
			part.Counter("c").Inc()
			direct.Gauge("g").Add(v)
			part.Gauge("g").Add(v)
		}
		merged.Absorb(part.Snapshot())
	}
	if !reflect.DeepEqual(direct.Snapshot(), merged.Snapshot()) {
		t.Fatalf("absorbed snapshots diverge from direct observation:\n%v\nvs\n%v",
			direct.Snapshot(), merged.Snapshot())
	}
}
