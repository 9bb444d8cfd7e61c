package gfw

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"sslab/internal/detector"
	"sslab/internal/entropy"
	"sslab/internal/netsim"
)

// sameProbeLogs asserts two campaigns produced byte-identical probe
// logs and matching aggregate counters — the chain-equivalence bar the
// verdict cache must clear.
func sameProbeLogs(t *testing.T, ga, gb *GFW) {
	t.Helper()
	if ga.PayloadsRecorded != gb.PayloadsRecorded {
		t.Errorf("PayloadsRecorded: %d vs %d", ga.PayloadsRecorded, gb.PayloadsRecorded)
	}
	if ga.ProbesSent != gb.ProbesSent {
		t.Errorf("ProbesSent: %d vs %d", ga.ProbesSent, gb.ProbesSent)
	}
	la, lb := ga.Log.Records, gb.Log.Records
	if len(la) != len(lb) {
		t.Fatalf("probe log length: %d vs %d", len(la), len(lb))
	}
	for i := range la {
		same := la[i].Time.Equal(lb[i].Time) &&
			la[i].SrcIP == lb[i].SrcIP && la[i].SrcPort == lb[i].SrcPort &&
			la[i].Type == lb[i].Type &&
			la[i].ReplayOf.Equal(lb[i].ReplayOf) &&
			bytes.Equal(la[i].Payload, lb[i].Payload)
		if !same {
			t.Fatalf("probe log diverges at entry %d", i)
		}
	}
}

// TestVerdictCacheEquivalence pins the tentpole invariant: enabling the
// verdict cache — at any capacity, over any detector chain — changes no
// verdict, no RNG draw, and therefore no byte of the probe log. Only
// the gfw.cache.* counters move.
func TestVerdictCacheEquivalence(t *testing.T) {
	chains := []struct {
		name string
		cfg  Config
	}{
		{"default-ss", Config{Seed: 7}},
		{"three-stage", Config{Seed: 7, Detectors: []string{"ss", "ovpn", "fep"}}},
		{"four-stage-exempt", Config{Seed: 7, Detectors: []string{"tlsexempt", "ss", "ovpn", "fep"}}},
	}
	sizes := []int{8, 4096}
	for _, ch := range chains {
		base, _, _ := runCampaign(t, respondingHost, 30000, ch.cfg)
		if h, m, e := base.CacheStats(); h+m+e != 0 {
			t.Errorf("%s: cache-off run reports cache activity (%d/%d/%d)", ch.name, h, m, e)
		}
		for _, size := range sizes {
			t.Run(fmt.Sprintf("%s/cache%d", ch.name, size), func(t *testing.T) {
				cfg := ch.cfg
				cfg.VerdictCache = size
				cached, _, _ := runCampaign(t, respondingHost, 30000, cfg)
				sameProbeLogs(t, base, cached)
				hits, misses, evictions := cached.CacheStats()
				// The campaign's payloads are all freshly generated, so
				// this is the worst case for the cache: every
				// payload-bearing flow misses — and the result must
				// still be byte-identical.
				if misses == 0 {
					t.Error("cache reports zero lookups over 30k flows")
				}
				if size == 8 && evictions == 0 {
					t.Error("8-entry cache under 30k distinct flows never evicted")
				}
				_ = hits
			})
		}
	}
}

// TestVerdictCacheHitRegimeEquivalence drives the cache's best case — a
// small cycling payload set, the fleet engine's repeated-handshake
// shape — and pins byte-identity while most lookups hit.
func TestVerdictCacheHitRegimeEquivalence(t *testing.T) {
	run := func(cache int) *GFW {
		sim := netsim.NewSim()
		net := netsim.NewNetwork(sim)
		g := New(Env{Sim: sim, Net: net}, WithConfig(Config{Seed: 19, VerdictCache: cache}))
		net.AddMiddlebox(g)
		server := netsim.Endpoint{IP: "178.62.0.19", Port: 8388}
		client := netsim.Endpoint{IP: "101.32.0.19", Port: 55019}
		net.AddHost(server, respondingHost)
		gen := entropy.NewGenerator(191)
		payloads := make([][]byte, 32)
		for i := range payloads {
			payloads[i] = gen.Random(1 + gen.Intn(1000))
		}
		sent := 0
		var tick func()
		tick = func() {
			if sent >= 20000 {
				return
			}
			net.Connect(client, server, payloads[sent%len(payloads)], false, time.Time{})
			sent++
			sim.After(5*time.Second, tick)
		}
		sim.After(0, tick)
		sim.Run()
		return g
	}
	base, cached := run(0), run(1024)
	sameProbeLogs(t, base, cached)
	hits, misses, _ := cached.CacheStats()
	if hits == 0 {
		t.Fatal("cycling payload set never hit the cache")
	}
	if hits < misses {
		t.Errorf("hit regime inverted: %d hits vs %d misses", hits, misses)
	}
}

// TestVerdictCacheEvictionProperty is the property test that eviction
// never changes a verdict: under a pathologically small cache (constant
// churn) every PassiveVerdict must equal a fresh uncached chain's
// Observe on the same flow, and the hit/miss/eviction counters must
// account for every lookup.
func TestVerdictCacheEvictionProperty(t *testing.T) {
	sim := netsim.NewSim()
	net := netsim.NewNetwork(sim)
	cfg := Config{Seed: 21, Detectors: []string{"ss", "ovpn", "fep"}, VerdictCache: 4}
	g := New(Env{Sim: sim, Net: net}, WithConfig(cfg))
	ref := detector.MustChain(cfg.chainNames(), detector.Params{Base: cfg.ReplayBase})

	gen := entropy.NewGenerator(31)
	// A working set of payloads far larger than the cache, replayed in a
	// rotating pattern so lookups mix hits, misses and evictions.
	payloads := make([][]byte, 64)
	for i := range payloads {
		payloads[i] = gen.Random(1 + gen.Intn(1200))
	}
	servers := []netsim.Endpoint{
		{IP: "178.62.0.1", Port: 8388},
		{IP: "178.62.0.2", Port: 8388},
	}
	f := &netsim.Flow{Client: netsim.Endpoint{IP: "101.32.0.2", Port: 55000}}
	lookups := 0
	for round := 0; round < 50; round++ {
		for i, p := range payloads {
			f.Server = servers[(round+i)%len(servers)]
			f.FirstPayload = p
			// Consult twice: with a 4-entry cache churning under a
			// 128-key working set the first lookup usually misses (and
			// evicts), the immediate second lookup hits the entry just
			// inserted — every path through lookup/insert is exercised,
			// and both answers must equal the uncached chain's.
			for rep := 0; rep < 2; rep++ {
				wGot, rGot := g.PassiveVerdict(f)
				wWant, rWant := ref.Observe(f)
				if wGot != wWant || rGot != rWant {
					t.Fatalf("round %d payload %d rep %d: cached verdict (%d, %+v) != chain verdict (%d, %+v)",
						round, i, rep, wGot, rGot, wWant, rWant)
				}
				lookups++
			}
		}
	}
	hits, misses, evictions := g.CacheStats()
	if hits+misses != int64(lookups) {
		t.Errorf("hits(%d)+misses(%d) != lookups(%d)", hits, misses, lookups)
	}
	if evictions == 0 {
		t.Error("4-entry cache over a 64-payload working set never evicted")
	}
	if hits == 0 || misses == 0 {
		t.Errorf("degenerate counter mix: hits=%d misses=%d", hits, misses)
	}
}

// TestFingerprintDistribution: the payload fingerprint must be
// collision-free over a campaign-scale payload set and sensitive to
// every byte position the sampler claims to cover.
func TestFingerprintDistribution(t *testing.T) {
	gen := entropy.NewGenerator(17)
	seen := map[uint64]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		fp := detector.Fingerprint(gen.Random(1 + gen.Intn(1400)))
		seen[fp]++
	}
	// 20k random payloads into 64 bits: any collision at all is a red
	// flag for the mixer.
	if len(seen) != n {
		t.Errorf("fingerprint collisions: %d distinct over %d payloads", len(seen), n)
	}
	// Equal content must map to equal fingerprints regardless of backing
	// array, and a one-byte change at any sampled offset must move the
	// fingerprint. For n=700 the stride is (700/32+7)&^7 = 24, so the
	// sampled words sit at offsets 0, 24, 48, … plus the final 8 bytes.
	p := gen.Random(700)
	q := append([]byte(nil), p...)
	if detector.Fingerprint(p) != detector.Fingerprint(q) {
		t.Error("equal payloads produced different fingerprints")
	}
	for _, idx := range []int{0, 1, 7, 24, 192, 480, 693, 699} {
		q[idx] ^= 0x41
		if detector.Fingerprint(p) == detector.Fingerprint(q) {
			t.Errorf("flipping byte %d did not change the fingerprint", idx)
		}
		q[idx] ^= 0x41
	}
	if detector.Fingerprint(p[:699]) == detector.Fingerprint(p) {
		t.Error("truncating by one byte did not change the fingerprint")
	}
	if detector.Fingerprint(nil) != detector.Fingerprint([]byte{}) {
		t.Error("nil and empty payloads disagree")
	}
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

// TestVerdictCacheMetricsExported: the gfw.cache.* counters on the
// sim's registry must mirror CacheStats.
func TestVerdictCacheMetricsExported(t *testing.T) {
	sim := netsim.NewSim()
	net := netsim.NewNetwork(sim)
	g := New(Env{Sim: sim, Net: net}, WithConfig(Config{Seed: 11, VerdictCache: 64}))
	gen := entropy.NewGenerator(111)
	server := netsim.Endpoint{IP: "178.62.0.11", Port: 8388}
	p := gen.Random(400)
	f := &netsim.Flow{Client: netsim.Endpoint{IP: "101.32.0.11", Port: 55011}, Server: server, FirstPayload: p, Start: sim.Now()}
	for i := 0; i < 10; i++ {
		g.PassiveVerdict(f)
	}
	hits, misses, _ := g.CacheStats()
	if misses != 1 || hits != 9 {
		t.Fatalf("CacheStats = %d hits / %d misses, want 9/1", hits, misses)
	}
	if got := sim.Metrics.Counter("gfw.cache.hits").Value(); got != hits {
		t.Errorf("gfw.cache.hits = %d, want %d", got, hits)
	}
	if got := sim.Metrics.Counter("gfw.cache.misses").Value(); got != misses {
		t.Errorf("gfw.cache.misses = %d, want %d", got, misses)
	}
}

// TestVerdictCacheUnderImpairment: the cache must also be invisible
// under link impairment, where dropped flows and probe retries exercise
// the impaired delivery path.
func TestVerdictCacheUnderImpairment(t *testing.T) {
	run := func(cache int) *GFW {
		sim := netsim.NewSim()
		net := netsim.NewNetwork(sim, netsim.WithDefaultLink(netsim.LinkProfile{
			LatencyBase: 40 * time.Millisecond, Jitter: 10 * time.Millisecond, Loss: 0.05,
		}))
		cfg := Config{Seed: 17, VerdictCache: cache}
		g := New(Env{Sim: sim, Net: net}, WithConfig(cfg))
		net.AddMiddlebox(g)
		server := netsim.Endpoint{IP: "178.62.0.17", Port: 8388}
		client := netsim.Endpoint{IP: "101.32.0.17", Port: 55017}
		net.AddHost(server, respondingHost)
		gen := entropy.NewGenerator(171)
		sent := 0
		var tick func()
		tick = func() {
			if sent >= 20000 {
				return
			}
			sent++
			net.Connect(client, server, gen.Random(1+gen.Intn(1000)), false, time.Time{})
			sim.After(5*time.Second, tick)
		}
		sim.After(0, tick)
		sim.Run()
		return g
	}
	sameProbeLogs(t, run(0), run(512))
}
