package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"sslab/internal/gfw"
	"sslab/internal/netsim"
	"sslab/internal/reaction"
	"sslab/internal/seedfork"
	"sslab/internal/sscrypto"
	"sslab/internal/trafficgen"
)

// TestGoldenCrossCheck pins the fleet engine against a hand-rolled
// single-client reference: the naive loop the existing `shadowsocks`
// experiment runs — one client, allocating trafficgen forms (no append
// API), a plain closure per event (no trampolines), and every wake-up
// candidate an event that the diurnal formula thins when it fires. A
// 1-user fleet must reproduce the reference's censor statistics
// *exactly*: same triggers, same recorded payloads, same probes, same
// flow and wake-up counts. Any divergence means the scheduler delivered
// an event at the wrong virtual time, the append-form trafficgen drew
// different random bytes, or the engine consumed PRNG draws in a
// different order than documented. The first case keeps every
// candidate; the second thins about two in five, so a thinned
// candidate's draws must be consumed exactly as a kept one's.
func TestGoldenCrossCheck(t *testing.T) {
	for _, tc := range []struct {
		floor float64
		rate  float64
	}{
		// Constant activity: the accept draw is still consumed. Dense
		// enough that the 4% passive detector records and probes.
		{floor: 1, rate: 40},
		{floor: 0.15, rate: 74},
	} {
		crossCheck(t, Config{
			Seed:             42,
			Users:            1,
			UsersPerServer:   1,
			Hours:            24,
			PeakFlowsPerHour: tc.rate,
			ActivityFloor:    tc.floor,
			Mix:              []ImplShare{{Impl: "sspython", Weight: 1}},
			GFW:              gfw.Config{Sensitivity: -1}, // probe forever, never block
		})
	}
}

// crossCheck runs the one-user cfg through the engine and through the
// reference loop, and compares their counts.
func crossCheck(t *testing.T, cfg Config) {
	t.Helper()
	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("fleet Run: %v", err)
	}

	// --- reference: the single-client loop, no fleet machinery ---
	c := cfg.withDefaults()
	sim := netsim.NewSim(netsim.WithSeed(c.Seed))
	net := netsim.NewNetwork(sim)
	gcfg := censorConfig(c.GFW) // the engine's rule: the never-block −1 builds as 0
	gcfg.Seed = seedfork.Fork(c.Seed, "fleet.gfw")
	gcfg.NoProbeLog = true
	g := gfw.New(gfw.Env{Sim: sim, Net: net}, gfw.WithConfig(gcfg))
	net.AddMiddlebox(g)
	tg := trafficgen.New(seedfork.Fork(c.Seed, "fleet.trafficgen"))

	// One server: consume the mix draw, build the same sspython server.
	mixRng := rand.New(rand.NewSource(seedfork.Fork(c.Seed, "fleet.mix")))
	_ = mixRng.Float64()
	spec, err := sscrypto.Lookup("aes-256-cfb")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := reaction.NewServer(reaction.SSPython, spec, "fleet-0")
	if err != nil {
		t.Fatal(err)
	}
	host := newServerHost(&Fleet{sim: sim}, srv, protoSS, false)
	serverEP := netsim.Endpoint{IP: "198.51.0.1", Port: 8388}
	net.AddHost(serverEP, host)
	clientEP := netsim.Endpoint{IP: "100.64.0.1", Port: 40000}

	// The user's PRNG draws, in the engine's documented order:
	// phase, workload, first-wake stagger; then per wake-up: gap, accept.
	rng := uint64(seedfork.Fork(c.Seed, "fleet.user", 0))
	f64 := func() float64 { return float64(splitmix(&rng)>>11) / (1 << 53) }
	phase := int64(splitmix(&rng)%181) - 90
	wl := trafficgen.CurlLoop
	if f64() < c.BrowseShare {
		wl = trafficgen.BrowseAlexa
	}
	// The diurnal curve: a cosine peaking at 21:00 plus the phase,
	// floored at ActivityFloor.
	activity := func(now time.Time) float64 {
		m := (int64(now.Sub(netsim.Epoch)/time.Minute) + phase) % (24 * 60)
		h := float64(m) / 60
		shape := 0.5 * (1 + math.Cos(2*math.Pi*(h-21)/24))
		return c.ActivityFloor + (1-c.ActivityFloor)*shape
	}

	meanGap := time.Duration(float64(time.Hour) / c.PeakFlowsPerHour)
	end := netsim.Epoch.Add(time.Duration(c.Hours) * time.Hour)
	var wakeups, flows int64
	var wake func(any)
	wake = func(any) {
		now := sim.Now()
		wakeups++
		gap := time.Duration(-math.Log1p(-f64()) * float64(meanGap))
		if next := now.Add(gap); next.Before(end) {
			sim.AtCall(next, wake, nil)
		}
		if f64() >= activity(now) {
			return
		}
		pkt := tg.WireFirstPacket(spec, tg.PlaintextFirstFlight(wl))
		net.Connect(clientEP, serverEP, pkt, false, time.Time{})
		flows++
	}
	sim.AtCall(netsim.Epoch.Add(time.Duration(f64()*float64(meanGap))), wake, nil)
	sim.RunUntil(end)

	where := fmt.Sprintf("ActivityFloor %v, %v flows per peak hour", c.ActivityFloor, c.PeakFlowsPerHour)
	if rep.Wakeups != wakeups {
		t.Errorf("%s: wake-ups: fleet %d, reference %d", where, rep.Wakeups, wakeups)
	}
	if rep.Flows != flows {
		t.Errorf("%s: flows: fleet %d, reference %d", where, rep.Flows, flows)
	}
	if rep.Triggers != g.Triggers {
		t.Errorf("%s: triggers: fleet %d, reference %d", where, rep.Triggers, g.Triggers)
	}
	if rep.PayloadsRecorded != g.PayloadsRecorded {
		t.Errorf("%s: payloads recorded: fleet %d, reference %d", where, rep.PayloadsRecorded, g.PayloadsRecorded)
	}
	if rep.ProbesSent != g.ProbesSent {
		t.Errorf("%s: probes sent: fleet %d, reference %d", where, rep.ProbesSent, g.ProbesSent)
	}
	if rep.Blocks != len(g.BlockEvents) {
		t.Errorf("%s: blocks: fleet %d, reference %d", where, rep.Blocks, len(g.BlockEvents))
	}
	if rep.ProbesSent == 0 {
		t.Errorf("%s: reference run produced no probes; cross-check is vacuous", where)
	}
	if c.ActivityFloor < 1 && flows == wakeups {
		t.Errorf("%s: the reference thinned no wake-up; the thinning case is vacuous", where)
	}
	t.Logf("%s: %d wake-ups, %d flows, %d probes", where, wakeups, flows, g.ProbesSent)
}
