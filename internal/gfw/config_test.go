package gfw

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"sslab/internal/netsim"
	"sslab/internal/seedfork"
)

// TestConfigValidateSensitivity: the boundary property — every value in
// the closed interval [0, 1] is accepted (including both endpoints and
// a swept sample of interior points), everything outside it, and NaN,
// is rejected with an error that names the field and the offending
// value.
func TestConfigValidateSensitivity(t *testing.T) {
	ok := []float64{0, 1, math.SmallestNonzeroFloat64, 1 - 1e-16, 0.25, 0.5}
	rng := rand.New(rand.NewSource(61))
	for i := 0; i < 200; i++ {
		ok = append(ok, rng.Float64())
	}
	for _, s := range ok {
		cfg := Config{Sensitivity: s}.withDefaults()
		if err := cfg.Validate(); err != nil {
			t.Fatalf("Sensitivity %v rejected: %v", s, err)
		}
	}

	bad := []float64{-1, -math.SmallestNonzeroFloat64, math.Nextafter(1, 2), 2, 1e9,
		math.Inf(1), math.Inf(-1), math.NaN()}
	for i := 0; i < 200; i++ {
		if v := rng.NormFloat64() * 50; v < 0 || v > 1 {
			bad = append(bad, v)
		}
	}
	for _, s := range bad {
		cfg := Config{Sensitivity: s}.withDefaults()
		err := cfg.Validate()
		if err == nil {
			t.Fatalf("Sensitivity %v accepted", s)
		}
		if !strings.Contains(err.Error(), "Sensitivity") {
			t.Fatalf("error %q does not name the field", err)
		}
	}
}

// TestConfigValidateReplayBase: the recording base scales a probability
// and Validate accepts it only finite and non-negative. A negative base
// records nothing, and NaN or +Inf records every flow in the length
// support; each is rejected with an error naming the field. 0 still
// selects the default, and the smallest positive base stays valid even
// though its confidences underflow to 0 almost everywhere.
func TestConfigValidateReplayBase(t *testing.T) {
	ok := []float64{0, math.SmallestNonzeroFloat64, 0.04, 1, 3, 1e9, math.MaxFloat64}
	rng := rand.New(rand.NewSource(62))
	for i := 0; i < 200; i++ {
		ok = append(ok, rng.ExpFloat64())
	}
	for _, b := range ok {
		if err := (Config{ReplayBase: b}.withDefaults()).Validate(); err != nil {
			t.Fatalf("ReplayBase %v rejected: %v", b, err)
		}
	}
	if b := (Config{}.withDefaults()).ReplayBase; b != 0.04 {
		t.Fatalf("zero ReplayBase defaults to %v, want 0.04", b)
	}

	bad := []float64{-1, -math.SmallestNonzeroFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	for i := 0; i < 200; i++ {
		bad = append(bad, -rng.ExpFloat64())
	}
	for _, b := range bad {
		err := (Config{ReplayBase: b}.withDefaults()).Validate()
		if err == nil {
			t.Fatalf("ReplayBase %v accepted", b)
		}
		if !strings.Contains(err.Error(), "ReplayBase") {
			t.Fatalf("error %q does not name the field", err)
		}
	}
}

// TestConfigValidateTTL: Validate rejects a negative or NaN TTL, and a
// block that can last past the 2,562,047 h a time.Duration holds
// (BlockTTLHours plus BlockTTLJitterHours, defaults applied) or a NaN or
// +Inf jitter, with an error naming the field; such a TTL used to wrap
// to about −292 years, so every block lifted the moment it was made.
// The zero values mean "default" and always validate, and a negative
// jitter is the jitter-free setting, at the bound too, where a block
// lasts exactly its TTL.
func TestConfigValidateTTL(t *testing.T) {
	for _, cfg := range []Config{
		{},
		Config{}.withDefaults(),
		{BlockTTLHours: 2_562_047, BlockTTLJitterHours: -1},
		{BlockTTLHours: 2_562_047, BlockTTLJitterHours: math.Inf(-1)},
		{BlockTTLHours: 2_561_879}, // jitter defaults to 168 h
		{BlockTTLHours: 2_562_000, BlockTTLJitterHours: 47},
		{BlockTTLJitterHours: 2_561_879}, // TTL defaults to 168 h
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("config %+v rejected: %v", cfg, err)
		}
	}
	for _, cfg := range []Config{
		{BlockTTLHours: -1},
		{BlockTTLHours: math.NaN()},
		{BlockTTLHours: math.Inf(1)},
		{BlockTTLHours: 3e6},
		{BlockTTLHours: 2_562_048, BlockTTLJitterHours: -1},
		{BlockTTLHours: 2_561_880},
		{BlockTTLHours: 2_562_000, BlockTTLJitterHours: 48},
		{BlockTTLJitterHours: 2_561_880},
		{BlockTTLJitterHours: math.NaN()},
		{BlockTTLJitterHours: math.Inf(1)},
	} {
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "BlockTTL") {
			t.Errorf("config %+v: error %v, want one naming the field", cfg, err)
		}
	}
	// Negative jitter is a pre-defaults sentinel for "no jitter": it
	// normalizes to 0 and validates.
	cfg := Config{BlockTTLJitterHours: -1}.withDefaults()
	if cfg.BlockTTLJitterHours != 0 {
		t.Fatalf("negative jitter normalized to %v, want 0", cfg.BlockTTLJitterHours)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("no-jitter sentinel rejected: %v", err)
	}

	sim := netsim.NewSim()
	g := New(Env{Sim: sim, Net: netsim.NewNetwork(sim)},
		WithConfig(Config{Sensitivity: 1, BlockTTLHours: 2_562_047, BlockTTLJitterHours: -1}))
	g.maybeBlock(netsim.Endpoint{IP: "178.62.0.7", Port: 8388}, &serverState{stage: 1, dataResponses: 2, fpScore: 10})
	if ev := g.BlockEvents; len(ev) != 1 || ev[0].Until.Sub(ev[0].Time) != 2_562_047*time.Hour {
		t.Errorf("block events %+v, want one lasting 2,562,047 h", ev)
	}
}

// TestConfigValidatePoolSize: Validate rejects a negative pool size,
// which NewPool ran as one address per AS or reached as a panic, and
// one larger than the prober prefixes hold, whose pool never finished
// building, with an error naming the field. The largest size that
// fits still builds: with Table 3's weights it is 638,611, where AS
// 4837 needs all but one of its five prefixes' 325,120 addresses.
func TestConfigValidatePoolSize(t *testing.T) {
	limit := maxPoolSize()
	if limit != 638_611 {
		t.Errorf("largest pool size %d, want 638,611", limit)
	}
	for _, size := range []int{0, 1, 64, 13000, limit} {
		if err := (Config{PoolSize: size}).Validate(); err != nil {
			t.Errorf("PoolSize %d rejected: %v", size, err)
		}
	}
	for _, size := range []int{-1, -5, -13000, limit + 1, 700_000, math.MaxInt} {
		if err := (Config{PoolSize: size}).Validate(); err == nil || !strings.Contains(err.Error(), "PoolSize") {
			t.Errorf("PoolSize %d: error %v, want one naming the field", size, err)
		}
	}
	p := NewPool(seedfork.NewSource(1), limit, netsim.Epoch)
	if n := len(p.ips); n < limit-len(ASWeights) {
		t.Errorf("a pool of size %d holds %d addresses", limit, n)
	}
}

// TestNewPanicsOnInvalid: New is the construction chokepoint — an
// out-of-domain sensitivity or block TTL must fail loudly there, not
// silently misbehave thousands of virtual hours later.
func TestNewPanicsOnInvalid(t *testing.T) {
	for _, cfg := range []Config{{Sensitivity: 2}, {BlockTTLHours: math.Inf(1)}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New accepted %+v", cfg)
				}
			}()
			sim := netsim.NewSim()
			New(Env{Sim: sim, Net: netsim.NewNetwork(sim)}, WithConfig(cfg))
		}()
	}
}

// TestBlockTTLKnobDefaults: the configurable TTL reproduces the
// historical hard-coded 7-day + U[0,7) draw when left at defaults —
// pinned here so the knob can never silently shift every golden.
func TestBlockTTLKnobDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.BlockTTLHours != 168 || cfg.BlockTTLJitterHours != 168 {
		t.Fatalf("default TTL %v h + %v h jitter, want 168 + 168",
			cfg.BlockTTLHours, cfg.BlockTTLJitterHours)
	}
}
