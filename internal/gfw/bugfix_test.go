package gfw

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"sslab/internal/entropy"
	"sslab/internal/netsim"
)

// TestSourcePortRangeExact pins the non-ephemeral source-port support to
// exactly [1212, 65535] (Figure 5: observed minimum 1212, tail reaching
// 65535). The off-by-one this guards against — Intn(65238-1212) — made
// 65535 (and 65238–65534) unreachable while every sampled port still
// looked plausible.
func TestSourcePortRangeExact(t *testing.T) {
	pool := NewPool(rand.New(rand.NewSource(41)), 64, netsim.Epoch)
	minPort, maxPort := 1<<16, 0
	for i := 0; i < 4_000_000; i++ {
		p := pool.Source(netsim.Epoch).Port
		if p >= 32768 && p <= 60999 {
			continue // ephemeral range; the tail is what we are pinning
		}
		if p < minPort {
			minPort = p
		}
		if p > maxPort {
			maxPort = p
		}
	}
	if minPort != nonEphemeralPortMin {
		t.Errorf("non-ephemeral port minimum = %d, want exactly %d", minPort, nonEphemeralPortMin)
	}
	if maxPort != nonEphemeralPortMax {
		t.Errorf("non-ephemeral port maximum = %d, want exactly %d", maxPort, nonEphemeralPortMax)
	}
}

// TestPickProcessResidualOwner checks that the sliver of probability the
// cumulative-weight loop fails to cover goes to the LAST positive-weight
// process, not process 0. The old fallthrough returned 0, silently
// inflating the dominant process's share; with weights that sum well
// below 1 the inflation becomes unmistakable.
func TestPickProcessResidualOwner(t *testing.T) {
	p := &Pool{
		rng: rand.New(rand.NewSource(7)),
		// Positive weights sum to 0.7: 30% of draws fall off the loop
		// and must land on index 2 (the last positive weight). Index 1
		// has zero weight and must never be chosen.
		procs: []tsProcess{{weight: 0.5}, {weight: 0}, {weight: 0.2}},
	}
	const n = 1_000_000
	counts := make([]int, len(p.procs))
	for i := 0; i < n; i++ {
		counts[p.pickProcess()]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight process chosen %d times", counts[1])
	}
	share0 := float64(counts[0]) / n
	share2 := float64(counts[2]) / n
	if share0 < 0.48 || share0 > 0.52 {
		t.Errorf("process 0 share = %.3f, want ≈0.50 (>0.52 means the residual is inflating the dominant process)", share0)
	}
	if share2 < 0.48 || share2 > 0.52 {
		t.Errorf("last process share = %.3f, want ≈0.50 (its 0.2 weight plus the 0.3 residual)", share2)
	}

	// And with the real Figure 6 weights the 1000 Hz process must stay
	// tiny — its nominal share is 0.0004, so anything visible means the
	// fallback became modal.
	pool := NewPool(rand.New(rand.NewSource(8)), 64, netsim.Epoch)
	counts = make([]int, len(pool.procs))
	for i := 0; i < n; i++ {
		counts[pool.pickProcess()]++
	}
	last := len(pool.procs) - 1
	if share := float64(counts[last]) / n; share > 0.01 {
		t.Errorf("1000 Hz process share = %.4f, want ≈0.0004", share)
	}
	if share := float64(counts[0]) / n; share < 0.80 || share > 0.84 {
		t.Errorf("dominant process share = %.3f, want ≈0.82", share)
	}
}

// TestSharedIPStaleUnblock reproduces the stale-unblock bug: server A is
// blocked by port, server B on the SAME IP is later blocked by IP, and
// A's scheduled unblock fires while B's block should still be standing.
// The old unblock path removed both rule kinds for A's endpoint,
// clearing the shared-IP rule installed for B a week early.
func TestSharedIPStaleUnblock(t *testing.T) {
	a := netsim.Endpoint{IP: "178.62.9.9", Port: 8388}
	b := netsim.Endpoint{IP: "178.62.9.9", Port: 8389}
	for seed := int64(0); seed < 500; seed++ {
		sim := netsim.NewSim()
		nw := netsim.NewNetwork(sim)
		g := New(Env{Sim: sim, Net: nw}, WithConfig(Config{Seed: seed, Sensitivity: 1.0, PoolSize: 32}))

		sa := g.state(a)
		sa.dataResponses, sa.fpScore = 10, 100
		g.maybeBlock(a, sa)
		if len(g.BlockEvents) != 1 || g.BlockEvents[0].ByIP {
			continue // need A blocked by port
		}
		sim.RunUntil(sim.Now().Add(time.Hour))
		sb := g.state(b)
		sb.dataResponses, sb.fpScore = 10, 100
		g.maybeBlock(b, sb)
		if len(g.BlockEvents) != 2 || !g.BlockEvents[1].ByIP {
			continue // need B blocked by IP
		}
		evA, evB := g.BlockEvents[0], g.BlockEvents[1]
		if !evB.Until.After(evA.Until) {
			continue // need the unblock windows to overlap
		}

		// A's port unblock fires first. It must clear only its own rule:
		// B's IP-wide block (which also blankets A) stays standing.
		sim.RunUntil(evA.Until.Add(time.Minute))
		if !nw.IsBlocked(b) {
			t.Fatalf("seed %d: A's stale unblock cleared B's shared-IP block early", seed)
		}
		if !nw.IsBlocked(a) {
			t.Fatalf("seed %d: the IP rule should still blanket A after its port unblock", seed)
		}
		sim.RunUntil(evB.Until.Add(time.Minute))
		if nw.IsBlocked(a) || nw.IsBlocked(b) {
			t.Fatalf("seed %d: endpoints still blocked after B's unblock fired", seed)
		}
		return
	}
	t.Fatal("no seed in [0,500) produced the port-then-IP overlap scenario")
}

// TestEmptyFirstFlightsDontDiluteNR1 pins the lenTotal bugfix: empty
// first flights (blocked or impaired connections deliver flows with no
// payload) must not count against the NR1 length profile. Before the
// fix they inflated the denominator, and with the judgment latched at
// NR1MinFlows a genuine Shadowsocks server was permanently
// misclassified as not ss-like.
func TestEmptyFirstFlightsDontDiluteNR1(t *testing.T) {
	sim := netsim.NewSim()
	net := netsim.NewNetwork(sim)
	g := New(Env{Sim: sim, Net: net}, WithConfig(Config{Seed: 9}))

	server := netsim.Endpoint{IP: "178.62.0.9", Port: 8388}
	client := netsim.Endpoint{IP: "101.32.0.9", Port: 55009}
	gen := entropy.NewGenerator(91)
	// Interleave 300 genuine in-range first packets with 300 empty first
	// flights — a client on a lossy path. All genuine packets land in
	// 160–700, so the true in-range fraction is 100%; the diluted
	// (buggy) fraction would be 50% < ssLikeFrac and latch false.
	for i := 0; i < 300; i++ {
		g.OnFlow(&netsim.Flow{Client: client, Server: server,
			FirstPayload: gen.Random(160 + gen.Intn(541)), Start: sim.Now()})
		g.OnFlow(&netsim.Flow{Client: client, Server: server, Start: sim.Now()})
	}
	p, ok := g.profiles[server]
	if !ok {
		t.Fatal("no length profile for a server with 300 payload-bearing flows")
	}
	if p.total != 300 {
		t.Errorf("profile total = %d, want 300 (empty first flights leaked in)", p.total)
	}
	if !p.ssLike(g.cfg.NR1MinFlows) {
		t.Error("all-in-range server judged not ss-like: empty first flights diluted the NR1 profile")
	}
}

// TestLazyServerState pins the serverState bugfix: endpoints whose
// flows are never recorded must not materialize probing state — their
// Stage is 0 and the servers map stays empty, so fleet-scale
// populations of innocuous servers cost the censor nothing. The first
// recording creates the state with stage 1.
func TestLazyServerState(t *testing.T) {
	sim := netsim.NewSim()
	net := netsim.NewNetwork(sim)
	g := New(Env{Sim: sim, Net: net}, WithConfig(Config{Seed: 10}))

	// Fleet-scale sweep of endpoints sending short (64-byte) payloads:
	// outside the 160–999 support, the Shadowsocks stage passes every
	// flow, so nothing is ever recorded.
	gen := entropy.NewGenerator(101)
	client := netsim.Endpoint{IP: "101.32.0.10", Port: 55010}
	const population = 5000
	for i := 0; i < population; i++ {
		ep := netsim.Endpoint{IP: fmt.Sprintf("178.%d.%d.%d", i>>16&0xff, i>>8&0xff, i&0xff), Port: 80}
		g.OnFlow(&netsim.Flow{Client: client, Server: ep, FirstPayload: gen.Random(64), Start: sim.Now()})
		if got := g.Stage(ep); got != 0 {
			t.Fatalf("unrecorded server %v reports Stage %d, want 0", ep, got)
		}
	}
	if n := g.SuspectedServers(); n != 0 {
		t.Fatalf("servers map holds %d entries after %d unrecorded endpoints, want 0", n, population)
	}
	if len(g.profiles) != population {
		t.Errorf("length profiles = %d, want %d (every payload-bearing flow counts)", len(g.profiles), population)
	}

	// A server whose traffic the detector does record materializes state
	// at the first recording, with stage 1.
	suspect := netsim.Endpoint{IP: "178.62.0.99", Port: 8388}
	for i := 0; i < 2000 && g.PayloadsRecorded == 0; i++ {
		g.OnFlow(&netsim.Flow{Client: client, Server: suspect,
			FirstPayload: gen.Random(160 + gen.Intn(541)), Start: sim.Now()})
	}
	if g.PayloadsRecorded == 0 {
		t.Fatal("in-range high-entropy campaign never recorded; test is vacuous")
	}
	if got := g.Stage(suspect); got != 1 {
		t.Errorf("recorded server Stage = %d, want 1", got)
	}
	if n := g.SuspectedServers(); n != 1 {
		t.Errorf("servers map holds %d entries, want exactly the recorded suspect", n)
	}
}
