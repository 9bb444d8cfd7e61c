package gfw

import (
	"math"
	"math/rand"
	"strconv"
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

// TestConfigValidateDetectors: the chain is spelled with the four stage
// names only. The former aliases ("ss", "tls"), unknown names and
// repeats are refused with an error naming the field, and an unknown
// name's error lists the four names.
func TestConfigValidateDetectors(t *testing.T) {
	for _, names := range [][]string{nil, {"shadowsocks"}, {"tlsexempt", "shadowsocks", "openvpn", "fullyencrypted"}} {
		if err := (Config{Detectors: names}).Validate(); err != nil {
			t.Errorf("Detectors %q rejected: %v", names, err)
		}
	}
	for _, names := range [][]string{{"ss"}, {"tls"}, {"shadowsocks", "tls"}, {"shadowsock"}} {
		err := (Config{Detectors: names}).Validate()
		if err == nil || !strings.Contains(err.Error(), "Detectors") ||
			!strings.Contains(err.Error(), "fullyencrypted, openvpn, shadowsocks, tlsexempt") {
			t.Errorf("Detectors %q: error %v, want one naming the field and listing the four stages", names, err)
		}
	}
	if err := (Config{Detectors: []string{"openvpn", "openvpn"}}).Validate(); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("repeated stage: error %v, want one saying it is listed twice", err)
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
// out-of-domain sensitivity or an unknown detector stage must fail
// loudly there, not silently misbehave thousands of virtual hours later.
func TestNewPanicsOnInvalid(t *testing.T) {
	for _, cfg := range []Config{{Sensitivity: 2}, {Detectors: []string{"ss"}}} {
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

// TestConfigValidateTTL: the censor holds every block TTL a validated
// config can set. The TTL is set only at run time (SetBlockTTL, driven
// by a region.KindBlockTTL event), and region.Schedule.Validate bounds
// such an event's hours plus jitter by the 2,562,047 h a time.Duration
// holds. At that bound with no jitter a block lasts exactly 2,562,047 h,
// and at 2,562,000 h plus 47 h of jitter every block lasts between
// 2,562,000 and 2,562,046 h. Such a TTL once wrapped to about −292
// years, so every block lifted the moment it was made.
func TestConfigValidateTTL(t *testing.T) {
	sim := netsim.NewSim()
	g := New(Env{Sim: sim, Net: netsim.NewNetwork(sim)}, WithConfig(Config{Sensitivity: 1}))
	block := func(i int) {
		g.maybeBlock(netsim.Endpoint{IP: "178.62.0." + strconv.Itoa(i), Port: 8388},
			&serverState{stage: 1, dataResponses: 2, fpScore: 10})
	}
	g.SetBlockTTL(2_562_047, 0)
	block(0)
	if ev := g.BlockEvents; len(ev) != 1 || ev[0].Until.Sub(ev[0].Time) != 2_562_047*time.Hour {
		t.Fatalf("block events %+v, want one lasting 2,562,047 h", ev)
	}
	g.SetBlockTTL(2_562_000, 47)
	for i := 1; i <= 32; i++ {
		block(i)
	}
	for _, ev := range g.BlockEvents[1:] {
		if d := ev.Until.Sub(ev.Time); d < 2_562_000*time.Hour || d > 2_562_046*time.Hour {
			t.Errorf("block of %v lasts %v, want 2,562,000 to 2,562,046 h", ev.Server, d)
		}
	}
}

// TestBlockTTLKnobDefaults: a new censor's runtime TTL is the historical
// 7-day + U[0,7) draw — pinned here so the constants can never silently
// shift every golden.
func TestBlockTTLKnobDefaults(t *testing.T) {
	sim := netsim.NewSim()
	g := New(Env{Sim: sim, Net: netsim.NewNetwork(sim)}, WithConfig(Config{Sensitivity: 1}))
	if g.ttlHours != 168 || g.ttlJitter != 168 {
		t.Fatalf("initial TTL %v h + %v h jitter, want 168 + 168", g.ttlHours, g.ttlJitter)
	}
}
