package metrics

// Absorb folds a snapshot into the registry: counters and gauges add.
// Instruments named by the snapshot are created on first use. Safe on
// a nil registry (no-op).
//
// Absorb is how execution layers that run several isolated
// sub-simulations (the fleet's space shards, the arms race's chains)
// expose one combined registry: each sub-run owns a private registry,
// and the caller absorbs the finished snapshots in a deterministic
// order. Adding gauges makes level gauges (blocked users, bytes held)
// cross-shard totals; high-water marks become sums of per-shard peaks,
// which bounds — but no longer equals — a global peak.
func (r *Registry) Absorb(s Snapshot) {
	if r == nil {
		return
	}
	for _, v := range s.Counters {
		r.Counter(v.Name).Add(v.Value)
	}
	for _, v := range s.Gauges {
		r.Gauge(v.Name).Add(v.Value)
	}
}
