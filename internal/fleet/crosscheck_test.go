package fleet

import (
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
// API), a plain closure per event (no trampolines). A 1-user fleet must
// reproduce the reference's censor statistics *exactly*: same triggers,
// same recorded payloads, same probes, same flow count. Any divergence
// means the scheduler delivered an event at the wrong virtual time, the
// append-form trafficgen drew different random bytes, or the engine
// consumed PRNG draws in a different order than documented.
func TestGoldenCrossCheck(t *testing.T) {
	cfg := Config{
		Seed:             42,
		Users:            1,
		UsersPerServer:   1,
		Hours:            24,
		PeakFlowsPerHour: 40, // dense enough that the 4% passive detector records and probes
		ActivityFloor:    1,  // constant activity: the accept draw is still consumed
		Mix:              []ImplShare{{Impl: "sspython", Weight: 1}},
		GFW:              gfw.Config{Sensitivity: -1}, // probe forever, never block
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("fleet Run: %v", err)
	}

	// --- reference: the single-client loop, no fleet machinery ---
	c := cfg.withDefaults()
	sim := netsim.NewSim(netsim.WithSeed(c.Seed))
	net := netsim.NewNetwork(sim)
	gcfg := c.GFW
	gcfg.Seed = seedfork.Fork(c.Seed, "fleet.gfw")
	gcfg.NoProbeLog = true
	if gcfg.Sensitivity < 0 {
		gcfg.Sensitivity = 0 // the engine's clamp of the historical never-block sentinel
	}
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
	host := newServerHost(&Fleet{sim: sim}, srv, protoSS, false, c.UsersPerServer, c.Hours, c.PeakFlowsPerHour)
	serverEP := netsim.Endpoint{IP: "198.51.0.1", Port: 8388}
	net.AddHost(serverEP, host)
	clientEP := netsim.Endpoint{IP: "100.64.0.1", Port: 40000}

	// The user's PRNG draws, in the engine's documented order:
	// phase, workload, first-wake stagger; then per wake-up: gap, accept.
	rng := uint64(seedfork.Fork(c.Seed, "fleet.user", 0))
	f64 := func() float64 { return float64(splitmix(&rng)>>11) / (1 << 53) }
	_ = splitmix(&rng) // diurnal phase (unused at ActivityFloor 1)
	wl := trafficgen.CurlLoop
	if f64() < c.BrowseShare {
		wl = trafficgen.BrowseAlexa
	}

	meanGap := time.Duration(float64(time.Hour) / c.PeakFlowsPerHour)
	end := netsim.Epoch.Add(time.Duration(c.Hours) * time.Hour)
	var flows int64
	var wake func(any)
	wake = func(any) {
		now := sim.Now()
		gap := time.Duration(-math.Log1p(-f64()) * float64(meanGap))
		if next := now.Add(gap); next.Before(end) {
			sim.AtCall(next, wake, nil)
		}
		if f64() >= 1 { // activity is constant 1 under ActivityFloor 1
			return
		}
		pkt := tg.WireFirstPacket(spec, tg.PlaintextFirstFlight(wl))
		net.Connect(clientEP, serverEP, pkt, false, time.Time{})
		flows++
	}
	sim.AtCall(netsim.Epoch.Add(time.Duration(f64()*float64(meanGap))), wake, nil)
	sim.RunUntil(end)

	if rep.Flows != flows {
		t.Errorf("flows: fleet %d, reference %d", rep.Flows, flows)
	}
	if rep.Triggers != g.Triggers {
		t.Errorf("triggers: fleet %d, reference %d", rep.Triggers, g.Triggers)
	}
	if rep.PayloadsRecorded != g.PayloadsRecorded {
		t.Errorf("payloads recorded: fleet %d, reference %d", rep.PayloadsRecorded, g.PayloadsRecorded)
	}
	if rep.ProbesSent != g.ProbesSent {
		t.Errorf("probes sent: fleet %d, reference %d", rep.ProbesSent, g.ProbesSent)
	}
	if rep.Blocks != len(g.BlockEvents) {
		t.Errorf("blocks: fleet %d, reference %d", rep.Blocks, len(g.BlockEvents))
	}
	if rep.ProbesSent == 0 {
		t.Error("reference run produced no probes; cross-check is vacuous")
	}
}
