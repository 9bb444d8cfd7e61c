package gfw

import (
	"bytes"
	"math"
	"slices"
	"testing"
	"time"

	"sslab/internal/entropy"
	"sslab/internal/netsim"
	"sslab/internal/probe"
	"sslab/internal/reaction"
	"sslab/internal/seedfork"
	"sslab/internal/stats"
)

// The lengthWeight/entropyWeight unit tests moved to internal/detector
// with the passive-detector math (the Shadowsocks stage); this file
// keeps the pipeline-level tests.

// --- delay model ----------------------------------------------------------

// TestDelayDistribution pins the Figure 7 anchors.
func TestDelayDistribution(t *testing.T) {
	rng := seedfork.NewSource(7)
	var samples []float64
	minD, maxD := math.Inf(1), 0.0
	for i := 0; i < 50000; i++ {
		d := sampleDelay(&rng).Seconds()
		samples = append(samples, d)
		minD = math.Min(minD, d)
		maxD = math.Max(maxD, d)
	}
	c := stats.NewCDF(samples)
	if p := c.P(1); p < 0.18 || p > 0.28 {
		t.Errorf("P(<=1s) = %.3f, want ≈0.22 (paper: >20%%)", p)
	}
	if p := c.P(60); p < 0.48 || p > 0.58 {
		t.Errorf("P(<=1min) = %.3f, want ≈0.52 (paper: >50%%)", p)
	}
	if p := c.P(900); p < 0.74 || p > 0.84 {
		t.Errorf("P(<=15min) = %.3f, want ≈0.78 (paper: >75%%)", p)
	}
	if minD < 0.28 {
		t.Errorf("min delay %.3f s below the observed 0.28 s", minD)
	}
	if maxD > 569.55*3600 {
		t.Errorf("max delay %.1f h above the observed 569.55 h", maxD/3600)
	}
	if maxD < 100*3600 {
		t.Errorf("max delay %.1f h; tail too short", maxD/3600)
	}
}

func TestRepeatCount(t *testing.T) {
	rng := seedfork.NewSource(8)
	sum, max := 0, 0
	const n = 20000
	for i := 0; i < n; i++ {
		c := sampleRepeatCount(&rng)
		if c < 1 || c > 47 {
			t.Fatalf("repeat count %d outside [1,47]", c)
		}
		sum += c
		if c > max {
			max = c
		}
	}
	mean := float64(sum) / n
	if mean < 3.0 || mean > 3.8 {
		t.Errorf("mean replays per payload %.2f, want ≈3.4 (11137/3269)", mean)
	}
	if max < 15 {
		t.Errorf("max repeats %d; tail too short (paper saw 47)", max)
	}
}

// --- pool fingerprints (§3.3, §3.4) ----------------------------------------

func TestPoolFingerprints(t *testing.T) {
	pool := NewPool(seedfork.NewSource(9), 13000, netsim.Epoch)

	const probes = 51837 // the paper's total
	perIP := map[string]int{}
	asOfIP := map[string]int{}
	var ports []float64
	var points []stats.TSPoint
	proc1000 := 0
	start := netsim.Epoch
	for i := 0; i < probes; i++ {
		// Spread over 4 months like the real experiments.
		at := start.Add(time.Duration(float64(i) / probes * 4 * 30 * 24 * float64(time.Hour)))
		s := pool.Source(at)
		perIP[s.IP]++
		asOfIP[s.IP] = s.ASN
		ports = append(ports, float64(s.Port))
		points = append(points, stats.TSPoint{T: at.Sub(start).Seconds(), TSval: s.TSval})
		if s.TTL < 46 || s.TTL > 50 {
			t.Fatalf("TTL %d outside 46–50", s.TTL)
		}
		if pool.procs[s.Process].rate == 1000 {
			proc1000++
		}
	}

	// Figure 3: ≈12,300 distinct IPs, >75% used more than once, max ≈44.
	if len(perIP) < 9500 || len(perIP) > 13000 {
		t.Errorf("distinct IPs = %d, want ≈12300", len(perIP))
	}
	multi, maxCount := 0, 0
	for _, c := range perIP {
		if c > 1 {
			multi++
		}
		if c > maxCount {
			maxCount = c
		}
	}
	if f := float64(multi) / float64(len(perIP)); f < 0.70 {
		t.Errorf("multi-use fraction %.2f, want > 0.75-ish", f)
	}
	if maxCount < 20 || maxCount > 150 {
		t.Errorf("max probes from one IP = %d, want ≈44", maxCount)
	}

	// Table 3: AS4837 and AS4134 dominate, in that order.
	asUnique := map[int]int{}
	for _, asn := range asOfIP {
		asUnique[asn]++
	}
	if asUnique[4837] <= asUnique[4134] {
		t.Errorf("AS4837 (%d) should exceed AS4134 (%d)", asUnique[4837], asUnique[4134])
	}
	if asUnique[4134] <= asUnique[17622] {
		t.Error("AS4134 should exceed AS17622")
	}

	// Figure 5: ≈90% of ports in 32768–60999, none below 1024.
	cdf := stats.NewCDF(ports)
	inRange := cdf.P(60999) - cdf.P(32767)
	if inRange < 0.85 || inRange > 0.95 {
		t.Errorf("ephemeral-range port share %.3f, want ≈0.90", inRange)
	}
	if cdf.Min() < 1024 {
		t.Errorf("minimum source port %v below 1024", cdf.Min())
	}

	// Figure 6: at least 7 substantial shared TSval sequences; the
	// 1000 Hz cluster is small.
	clusters := stats.ClusterTSvals(points, []float64{250, 1000}, 100000)
	substantial := 0
	var thousand *stats.TSCluster
	for i := range clusters {
		if len(clusters[i].Points) >= 10 {
			substantial++
			if clusters[i].Rate == 1000 {
				thousand = &clusters[i]
			}
		}
	}
	if substantial < 8 {
		t.Errorf("substantial TSval clusters = %d, want 8 (7×250 Hz + 1×1000 Hz)", substantial)
	}
	if thousand == nil {
		t.Fatal("1000 Hz cluster missing")
	}
	if got := len(thousand.Points); got < 5 || got > 60 {
		t.Errorf("1000 Hz cluster size %d, want small (paper saw 22)", got)
	}
	// Dominant cluster rate ≈ 250 Hz.
	rate, err := clusters[0].MeasuredRate()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rate-250) > 2 {
		t.Errorf("dominant process rate %.2f Hz, want ≈250", rate)
	}
}

// --- full pipeline ---------------------------------------------------------

// runCampaign drives count trigger connections at 5-second intervals from
// one client to one server and returns the GFW after the sim drains,
// with every first packet the client sent.
func runCampaign(t *testing.T, host netsim.Host, count int, cfg Config) (*GFW, [][]byte, netsim.Endpoint) {
	t.Helper()
	sim := netsim.NewSim()
	net := netsim.NewNetwork(sim)
	g := New(Env{Sim: sim, Net: net}, WithConfig(cfg))
	net.AddMiddlebox(g)

	server := netsim.Endpoint{IP: "178.62.0.1", Port: 8388}
	client := netsim.Endpoint{IP: "101.32.0.2", Port: 55000}
	net.AddHost(server, host)

	gen := entropy.NewGenerator(seedfork.Fork(cfg.Seed, "gfwtest.traffic"))
	var sent [][]byte
	var tick func()
	tick = func() {
		if len(sent) >= count {
			return
		}
		payload := gen.Random(1 + gen.Intn(1000))
		sent = append(sent, payload)
		net.Connect(client, server, payload, false, time.Time{})
		sim.After(5*time.Second, tick)
	}
	sim.After(0, tick)
	sim.Run()
	return g, sent, server
}

var sinkHost = netsim.HostFunc(func(f *netsim.Flow) netsim.Outcome {
	return netsim.Outcome{Reaction: reaction.Timeout}
})

// respondingHost answers every probe with data — §4.1's "responding mode".
var respondingHost = netsim.HostFunc(func(f *netsim.Flow) netsim.Outcome {
	if f.Probe {
		return netsim.Outcome{Reaction: reaction.Data, ResponseLen: 500}
	}
	return netsim.Outcome{Reaction: reaction.Timeout}
})

// TestStagedProbing reproduces §4.2's staging: a sink server receives only
// R1/R2/NR2 (plus NR1 campaigns from genuine-usage patterns); a responding
// server escalates to R3/R4.
func TestStagedProbing(t *testing.T) {
	gSink, _, epSink := runCampaign(t, sinkHost, 60000, Config{Seed: 1})
	counts := gSink.Log.TypeCounts()
	for _, typ := range []probe.Type{probe.R1, probe.R2, probe.NR2} {
		if counts[typ] == 0 {
			t.Errorf("sink server: no %v probes", typ)
		}
	}
	for _, typ := range []probe.Type{probe.R3, probe.R4, probe.R5, probe.R6} {
		if counts[typ] != 0 {
			t.Errorf("sink server: received %d %v probes; stage 2 leaked", counts[typ], typ)
		}
	}
	if gSink.Stage(epSink) != 1 {
		t.Errorf("sink server stage = %d, want 1", gSink.Stage(epSink))
	}

	gResp, _, epResp := runCampaign(t, respondingHost, 60000, Config{Seed: 2})
	counts = gResp.Log.TypeCounts()
	if gResp.Stage(epResp) != 2 {
		t.Fatalf("responding server stage = %d, want 2", gResp.Stage(epResp))
	}
	if counts[probe.R3] == 0 || counts[probe.R4] == 0 {
		t.Errorf("responding server: R3=%d R4=%d, want both > 0", counts[probe.R3], counts[probe.R4])
	}
	if counts[probe.R5] > counts[probe.R4]/10 {
		t.Errorf("R5 (%d) should be rare relative to R4 (%d)", counts[probe.R5], counts[probe.R4])
	}
}

// TestReplayLengthSupport: replayed probe lengths stay within Figure 8's
// observed support (161–999) even though triggers span 1–1000, and the
// mod-16 stair-step appears.
func TestReplayLengthSupport(t *testing.T) {
	g, _, _ := runCampaign(t, sinkHost, 60000, Config{Seed: 3})
	replays := 0
	badLen := 0
	rem := map[int]int{}
	bandTotal := 0
	for _, r := range g.Log.Records {
		if !r.Type.Replay() {
			continue
		}
		replays++
		n := len(r.Payload)
		if n < 160 || n > 999 {
			badLen++
		}
		if n >= 384 && n <= 687 {
			rem[n%16]++
			bandTotal++
		}
	}
	if replays < 200 {
		t.Fatalf("only %d replay probes; recording rate too low", replays)
	}
	if badLen != 0 {
		t.Errorf("%d replays outside the 160–999 support", badLen)
	}
	if bandTotal > 20 {
		if f := float64(rem[2]) / float64(bandTotal); f < 0.85 {
			t.Errorf("remainder-2 share in 384–687 = %.2f, want ≈0.96", f)
		}
	}
}

// TestReplayDelayPipeline verifies end-to-end replay delays match the
// Figure 7 bands and that GeneratedAt rides along for replay probes.
func TestReplayDelayPipeline(t *testing.T) {
	g, _, _ := runCampaign(t, sinkHost, 60000, Config{Seed: 4})
	all, first := g.Log.ReplayDelays()
	if all.Len() < 300 {
		t.Fatalf("only %d replay delays", all.Len())
	}
	if p := all.P(1); p < 0.12 || p > 0.32 {
		t.Errorf("P(delay<=1s) = %.3f", p)
	}
	if p := all.P(900); p < 0.65 || p > 0.9 {
		t.Errorf("P(delay<=15min) = %.3f", p)
	}
	if all.Min() < 0.28 {
		t.Errorf("min delay %.3f s", all.Min())
	}
	if first.Len() >= all.Len() {
		t.Error("first-occurrence count should be below total (repeats exist)")
	}
}

// TestEntropyAffectsProbeVolume: Exp 1.a vs Exp 2 — a low-entropy client
// attracts several times fewer probes than a high-entropy one.
func TestEntropyAffectsProbeVolume(t *testing.T) {
	high, _, _ := runCampaign(t, sinkHost, 40000, Config{Seed: 5})

	// Low-entropy variant of the campaign.
	sim := netsim.NewSim()
	net := netsim.NewNetwork(sim)
	cfg := Config{Seed: 5}
	g := New(Env{Sim: sim, Net: net}, WithConfig(cfg))
	net.AddMiddlebox(g)
	server := netsim.Endpoint{IP: "178.62.0.2", Port: 8388}
	client := netsim.Endpoint{IP: "101.32.0.3", Port: 55001}
	net.AddHost(server, sinkHost)
	gen := entropy.NewGenerator(55)
	sent := 0
	var tick func()
	tick = func() {
		if sent >= 40000 {
			return
		}
		sent++
		net.Connect(client, server, gen.Payload(1+gen.Intn(1000), 1.5), false, time.Time{})
		sim.After(5*time.Second, tick)
	}
	sim.After(0, tick)
	sim.Run()

	if high.PayloadsRecorded == 0 {
		t.Fatal("high-entropy campaign recorded nothing")
	}
	ratio := float64(high.PayloadsRecorded) / math.Max(1, float64(g.PayloadsRecorded))
	if ratio < 2 {
		t.Errorf("high/low entropy recording ratio %.2f, want >= 2 (paper: 'significantly more')", ratio)
	}
}

// TestBlockingModule: with sensitivity raised, a server that answers
// replays gets blocked (by port or IP), probes keep flowing, clients are
// cut off, and the block lifts after a week-plus without recheck probes.
func TestBlockingModule(t *testing.T) {
	sim := netsim.NewSim()
	net := netsim.NewNetwork(sim)
	g := New(Env{Sim: sim, Net: net}, WithConfig(Config{Seed: 6, Sensitivity: 1.0, BlockThreshold: 6}))
	net.AddMiddlebox(g)
	server := netsim.Endpoint{IP: "178.62.0.3", Port: 8388}
	client := netsim.Endpoint{IP: "101.32.0.4", Port: 55002}
	// A Shadowsocks-python-like server: serves identical replays with
	// data, RSTs everything else — the combination §6 saw get blocked.
	seen := map[string]bool{}
	net.AddHost(server, netsim.HostFunc(func(f *netsim.Flow) netsim.Outcome {
		if !f.Probe {
			seen[string(f.FirstPayload)] = true
			return netsim.Outcome{Reaction: reaction.Timeout}
		}
		if seen[string(f.FirstPayload)] {
			return netsim.Outcome{Reaction: reaction.Data, ResponseLen: 700}
		}
		return netsim.Outcome{Reaction: reaction.RST}
	}))

	gen := entropy.NewGenerator(66)
	blockedSeen := 0
	sent := 0
	var tick func()
	tick = func() {
		if sent >= 50000 {
			return
		}
		sent++
		o := net.Connect(client, server, gen.Random(1+gen.Intn(1000)), false, time.Time{})
		if o.Blocked {
			blockedSeen++
		}
		sim.After(5*time.Second, tick)
	}
	sim.After(0, tick)
	sim.Run()

	if len(g.BlockEvents) == 0 {
		t.Fatal("replay-serving, fingerprintable server never blocked despite sensitivity 1")
	}
	ev := g.BlockEvents[0]
	if ev.Until.Sub(ev.Time) < 7*24*time.Hour {
		t.Errorf("unblock after %v, want >= 1 week", ev.Until.Sub(ev.Time))
	}
	if blockedSeen == 0 {
		t.Error("client never observed the block")
	}
	// After the sim drained, all scheduled unblocks have fired.
	if net.IsBlocked(server) {
		t.Error("server still blocked after unblock time")
	}
}

// TestOfflineClassificationMatchesGroundTruth validates the full analysis
// pipeline: classifying captured probe payloads against every legitimate
// first packet the client sent (what the paper's offline analysis did:
// it could not know which of them the censor recorded) must recover the
// generator's ground-truth types. The same campaign checks the
// identical-replay mark the censor puts on the flow: the server sees it
// on exactly the probes whose payload equals a legitimate first packet
// — every R1 and no NR probe — as it does on a replay whose mutation
// offsets lie past the end of a short recording, and on the retry of a
// dropped R1.
func TestOfflineClassificationMatchesGroundTruth(t *testing.T) {
	host := &markHost{}
	g, sent, server := runCampaign(t, host, 60000, Config{Seed: 12})
	if g.PayloadsRecorded == 0 {
		t.Fatal("no recordings")
	}
	legit := indexByLen(sent...)
	mismatches := 0
	for i := range g.Log.Records {
		rec := &g.Log.Records[i]
		got := probe.Classify(rec.Payload, legit[len(rec.Payload)])
		if got != rec.Type {
			mismatches++
			if mismatches <= 3 {
				t.Logf("record %d: classified %v, ground truth %v (len %d)",
					i, got, rec.Type, len(rec.Payload))
			}
		}
	}
	// NR2 payloads can collide with a 221-byte legitimate packet and
	// rare R mutations can alias each other; anything beyond a sliver
	// means the classifier or the generator drifted.
	t.Logf("%d probes classified against %d legitimate first packets (%d recorded): %d mismatches",
		g.Log.Len(), len(sent), g.PayloadsRecorded, mismatches)
	if frac := float64(mismatches) / float64(g.Log.Len()); frac > 0.01 {
		t.Errorf("classification mismatch rate %.3f (%d of %d)", frac, mismatches, g.Log.Len())
	}
	marked := host.check(t, "campaign", g, legit)
	if marked[probe.R1] == 0 || marked[probe.R1] != g.Log.TypeCounts()[probe.R1] {
		t.Errorf("campaign: %d of %d R1 probes marked, want all of at least one", marked[probe.R1], g.Log.TypeCounts()[probe.R1])
	}
	for _, typ := range []probe.Type{probe.NR1, probe.NR2, probe.NR3} {
		if marked[typ] != 0 {
			t.Errorf("campaign: %d %v probes marked", marked[typ], typ)
		}
	}

	// A 12-byte recording at stage 2: R4 and R6 mutate only offsets
	// from 16 on, so they replay it byte for byte; R2 and R3 change
	// byte 0 and stay unmarked.
	short := []byte("twelve bytes")
	host = &markHost{}
	g, _, server = runCampaign(t, host, 0, Config{Seed: 12})
	g.state(server).stage = 2
	for i := 0; i < 200; i++ {
		g.sendProbe(server, short, netsim.Epoch)
	}
	marked = host.check(t, "short recording", g, indexByLen(short))
	if marked[probe.R4] == 0 || marked[probe.R2]+marked[probe.R3] != 0 {
		t.Errorf("short recording: marked %v, want R4 and neither R2 nor R3", marked)
	}

	// A lossy link drops some probes sent at the epoch; their retries,
	// 10 s and 20 s later, may arrive, and an R1 retry must still carry
	// the mark.
	sim := netsim.NewSim(netsim.WithSeed(12))
	net := netsim.NewNetwork(sim, netsim.WithDefaultLink(netsim.LinkProfile{
		Loss:  0.3,
		Retry: netsim.RetryPolicy{Attempts: 1},
	}))
	g = New(Env{Sim: sim, Net: net}, WithConfig(Config{Seed: 12}))
	net.AddMiddlebox(g)
	host = &markHost{}
	net.AddHost(server, host)
	rec := entropy.NewGenerator(1).Random(300)
	for i := 0; i < 20; i++ {
		g.sendProbe(server, rec, netsim.Epoch)
	}
	sim.Run()
	if g.ProbeDrops == 0 || g.ProbeRetries == 0 {
		t.Fatalf("lossy link: %d drops and %d retries, want some of each", g.ProbeDrops, g.ProbeRetries)
	}
	retriedR1 := 0
	for _, p := range host.probes {
		if bytes.Equal(p.payload, rec) && !p.at.Before(netsim.Epoch.Add(proberPatience)) {
			retriedR1++
		}
	}
	host.check(t, "retries", nil, indexByLen(rec))
	if retriedR1 == 0 {
		t.Error("lossy link: no R1 retry reached the server")
	}
	t.Logf("lossy link: %d drops, %d retries, %d R1 retries delivered", g.ProbeDrops, g.ProbeRetries, retriedR1)
}

// markHost answers every probe with data, like respondingHost, and keeps
// each probe's payload and whether its flow carried the replay mark.
type markHost struct {
	probes []markedProbe
}

type markedProbe struct {
	payload  []byte
	replayed bool
	at       time.Time
}

func (h *markHost) HandleFlow(f *netsim.Flow) netsim.Outcome {
	if f.Probe {
		h.probes = append(h.probes, markedProbe{append([]byte(nil), f.FirstPayload...), f.Replayed, f.Start})
	}
	return respondingHost(f)
}

// byLen indexes payloads by length, keeping their order, so a probe is
// compared only with the payloads it could equal or mutate.
type byLen map[int][][]byte

func indexByLen(payloads ...[]byte) byLen {
	ix := byLen{}
	for _, p := range payloads {
		ix[len(p)] = append(ix[len(p)], p)
	}
	return ix
}

// check requires the mark on exactly the probes whose payload equals
// one of legit. With g, whose capture log must list the probes the host
// saw in order, it returns the marked probes' counts by type.
func (h *markHost) check(t *testing.T, label string, g *GFW, legit byLen) map[probe.Type]int {
	t.Helper()
	if g != nil && g.Log.Len() != len(h.probes) {
		t.Fatalf("%s: host saw %d probes, censor logged %d", label, len(h.probes), g.Log.Len())
	}
	marked := map[probe.Type]int{}
	for i, p := range h.probes {
		identical := slices.ContainsFunc(legit[len(p.payload)], func(r []byte) bool { return bytes.Equal(p.payload, r) })
		if p.replayed != identical {
			t.Errorf("%s: probe %d (%d bytes) marked %v, identical to a recording %v", label, i, len(p.payload), p.replayed, identical)
		}
		if g == nil {
			continue
		}
		if rec := &g.Log.Records[i]; !bytes.Equal(rec.Payload, p.payload) {
			t.Fatalf("%s: host probe %d is not the censor's record %d", label, i, i)
		} else if p.replayed {
			marked[rec.Type]++
		}
	}
	return marked
}
