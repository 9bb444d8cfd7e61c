package gfw

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"sslab/internal/netsim"
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

// TestConfigValidateTTL: block-TTL knobs reject negatives and NaN; the
// zero values mean "default" and always validate.
func TestConfigValidateTTL(t *testing.T) {
	if err := (Config{}.withDefaults()).Validate(); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
	for _, cfg := range []Config{
		{BlockTTLHours: -1},
		{BlockTTLHours: math.NaN()},
	} {
		if err := cfg.withDefaults().Validate(); err == nil {
			t.Fatalf("config %+v accepted", cfg)
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
}

// TestNewPanicsOnInvalid: New is the construction chokepoint — an
// out-of-domain sensitivity must fail loudly there, not silently
// misbehave thousands of virtual hours later.
func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted Sensitivity 2")
		}
	}()
	sim := netsim.NewSim()
	net := netsim.NewNetwork(sim)
	New(Env{Sim: sim, Net: net}, WithConfig(Config{Sensitivity: 2}))
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
