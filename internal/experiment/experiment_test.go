package experiment

import (
	"strings"
	"testing"

	"sslab/internal/gfw"
	"sslab/internal/probe"
	"sslab/internal/reaction"
)

func TestTable1(t *testing.T) {
	tl := Table1()
	if len(tl.Rows) != 3 {
		t.Fatalf("Table 1 has %d rows", len(tl.Rows))
	}
	out := tl.Render()
	for _, want := range []string{"Shadowsocks", "Sink", "Brdgrd", "4 months", "403 hours"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 render missing %q", want)
		}
	}
}

// smallSS is a scaled-down §3.1 experiment for tests (~12 days).
func smallSS(t *testing.T) *ShadowsocksReport {
	t.Helper()
	r, err := ShadowsocksExperiment(ShadowsocksConfig{
		Seed: 11, Days: 12, ConnsPerPairPerHour: 60,
		GFW: gfw.Config{PoolSize: 4000},
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestShadowsocksExperiment(t *testing.T) {
	r := smallSS(t)

	if r.ControlProbes != 0 {
		t.Errorf("control host received %d probes; proactive scanning crept in", r.ControlProbes)
	}
	if r.Probes < 500 {
		t.Fatalf("only %d probes in %d days", r.Probes, r.Config.Days)
	}

	// §3.2: R3/R4/R5 must be exclusive to the OutlineVPN pair.
	for _, p := range r.Pairs {
		stage2 := p.TypeCounts[probe.R3] + p.TypeCounts[probe.R4] + p.TypeCounts[probe.R5]
		if p.Profile == reaction.Outline107 {
			if stage2 == 0 {
				t.Errorf("%s: expected stage-2 probes, got none", p.Name)
			}
			if p.Stage != 2 {
				t.Errorf("%s: stage = %d, want 2", p.Name, p.Stage)
			}
		} else if stage2 != 0 {
			t.Errorf("%s (%s): received %d stage-2 probes; paper saw none for libev",
				p.Name, p.Profile.Versions, stage2)
		}
	}

	// Figure 2 shape: NR2 over 221 bytes, several NR1 trio lengths, and
	// NR2 roughly 3x all NR1 combined (loose band: 1.5–6x).
	if r.NR2Count == 0 || r.NR1Total == 0 {
		t.Fatalf("NR probes missing: NR1=%d NR2=%d", r.NR1Total, r.NR2Count)
	}
	ratio := float64(r.NR2Count) / float64(r.NR1Total)
	if ratio < 1.2 || ratio > 8 {
		t.Errorf("NR2/NR1 ratio %.1f, want ≈3", ratio)
	}
	for _, k := range r.NR1Lengths.Keys() {
		valid := false
		for _, l := range probe.NR1Lengths() {
			if k == l {
				valid = true
			}
		}
		if !valid {
			t.Errorf("NR1 histogram contains invalid length %d", k)
		}
	}

	// Figure 5 / §3.4 fingerprints.
	if r.EphemeralPortShare < 0.85 || r.EphemeralPortShare > 0.95 {
		t.Errorf("ephemeral port share %.2f", r.EphemeralPortShare)
	}
	if r.MinPort < 1024 {
		t.Errorf("min port %d", r.MinPort)
	}

	// Figure 6: several shared processes.
	if r.TSClusters < 5 {
		t.Errorf("TS clusters = %d, want >= 5 at this scale", r.TSClusters)
	}
	if r.DominantRate < 245 || r.DominantRate > 255 {
		t.Errorf("dominant TS rate %.1f", r.DominantRate)
	}

	// Figure 7 anchors (bands widened for sample size).
	if r.DelayAll.Len() < 100 {
		t.Fatalf("replay delays = %d", r.DelayAll.Len())
	}
	if p := r.DelayAll.P(60); p < 0.35 || p > 0.65 {
		t.Errorf("P(delay<=1min) = %.2f", p)
	}

	// Figure 4: our set overlaps only slightly with the historical ones.
	if r.Overlap.AB == 0 && r.Overlap.AC == 0 {
		t.Error("no overlap at all with historical datasets")
	}
	if r.Overlap.AB > r.UniqueIPs/10 {
		t.Error("overlap with Ensafi set implausibly large")
	}

	// Render must include every artifact heading.
	out := r.Render()
	for _, want := range []string{"Figure 2", "Figure 3", "Table 2", "Table 3", "Figure 5", "Figure 6", "Figure 7", "Figure 4"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestSinkExperiments(t *testing.T) {
	r, err := SinkExperiments(SinkConfig{Seed: 21, Hours: 60, ConnsPerHour: 1500, GFW: gfw.Config{PoolSize: 3000}})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("Table 4 rows = %d", len(r.Rows))
	}

	// Exp 1.a (sink) gets probes despite never answering.
	if r.Rows[0].Probes < 100 {
		t.Errorf("Exp 1.a probes = %d", r.Rows[0].Probes)
	}
	// Stage-2 probes appear only after the responding switch.
	if r.Stage2BeforeSwitch != 0 {
		t.Errorf("stage-2 probes before the switch: %d", r.Stage2BeforeSwitch)
	}
	if r.Stage2AfterSwitch == 0 {
		t.Error("no stage-2 probes after the responding switch")
	}

	// Exp 2 (low entropy) must receive significantly fewer probes than 1.a.
	if r.Rows[2].Probes*2 >= r.Rows[0].Probes {
		t.Errorf("low-entropy probes (%d) not significantly below high-entropy (%d)",
			r.Rows[2].Probes, r.Rows[0].Probes)
	}

	// Figure 8: support and stair-step.
	if r.ReplayLenMin < 160 || r.ReplayLenMax > 999 {
		t.Errorf("replay lengths %d–%d outside [160,999]", r.ReplayLenMin, r.ReplayLenMax)
	}
	if r.Rem9ShareLow < 0.55 {
		t.Errorf("remainder-9 share (168–263) = %.2f, want ≈0.72", r.Rem9ShareLow)
	}
	if r.Rem2ShareHigh < 0.85 {
		t.Errorf("remainder-2 share (384–687) = %.2f, want ≈0.96", r.Rem2ShareHigh)
	}
	if r.MixShareMid < 0.5 {
		t.Errorf("remainders 9+2 share (264–383) = %.2f, want ≈0.69", r.MixShareMid)
	}

	// Figure 9: monotone-ish growth; top bin several times the H≈3 bin.
	if len(r.ReplayRatios) != 8 {
		t.Fatalf("entropy bins = %d", len(r.ReplayRatios))
	}
	if r.ReplayRatios[7] <= r.ReplayRatios[2] {
		t.Errorf("replay ratio not increasing with entropy: %v", r.ReplayRatios)
	}

	if out := r.Render(); !strings.Contains(out, "Table 4") || !strings.Contains(out, "Figure 9") {
		t.Error("render incomplete")
	}
}

func TestBrdgrdExperiment(t *testing.T) {
	r, err := BrdgrdExperiment(BrdgrdConfig{
		Seed: 31, Hours: 160, ConnsPer5Min: 16,
		OnWindows: [][2]int{{60, 110}},
		GFW:       gfw.Config{PoolSize: 3000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.MeanRateOff <= 0 {
		t.Fatal("no probes while brdgrd off; experiment inert")
	}
	// Figure 11's shape: probing collapses while shaping is active.
	if r.MeanRateOn > r.MeanRateOff*0.25 {
		t.Errorf("probe rate on=%.2f/h vs off=%.2f/h; shaping ineffective", r.MeanRateOn, r.MeanRateOff)
	}
	// The control server's probing is unaffected throughout.
	controlTotal := 0
	for _, v := range r.ControlPerHour {
		controlTotal += v
	}
	if controlTotal == 0 {
		t.Error("control server received no probes")
	}
	if out := r.Render(); !strings.Contains(out, "brdgrd") {
		t.Error("render incomplete")
	}
}

func TestBlockingExperiment(t *testing.T) {
	r, err := BlockingExperiment(BlockingConfig{
		Seed: 51, Days: 25, Sensitivity: 0.8,
		GFW: gfw.Config{PoolSize: 3000},
	})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]BlockedServer{}
	for _, s := range r.Servers {
		byName[s.Name] = s
	}
	// The §6 shape: the stream, replay-serving implementations get
	// blocked; the studied libev/outline configurations and the hardened
	// profile do not.
	for _, name := range []string{"ss-python", "ssr"} {
		s := byName[name]
		if !s.Blocked {
			t.Errorf("%s was not blocked despite serving replays and RSTing probes", name)
		}
		if s.Blocked && s.OutageObserved == 0 {
			t.Errorf("%s blocked but its client saw no outage", name)
		}
	}
	for _, name := range []string{"libev-new", "outline-1.0.7", "hardened"} {
		if byName[name].Blocked {
			t.Errorf("%s was blocked; the paper's servers of this kind survived", name)
		}
	}
	// Everyone gets probed regardless of blocking fate.
	for _, s := range r.Servers {
		if s.Probes == 0 {
			t.Errorf("%s received no probes at all", s.Name)
		}
	}
	if out := r.Render(); !strings.Contains(out, "by ") && !strings.Contains(out, "blocked") {
		t.Error("render incomplete")
	}
}

func TestReactionMatrices(t *testing.T) {
	r, err := ReactionMatrices(MatrixConfig{Seed: 41, Trials: 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Stream) != 6 || len(r.AEAD) != 9 || len(r.Replay) != 9 {
		t.Fatalf("matrix counts: stream=%d aead=%d replay=%d", len(r.Stream), len(r.AEAD), len(r.Replay))
	}
	out := r.Render()
	for _, want := range []string{"Figure 10a", "Figure 10b", "Table 5", "outline-ss-server", "shadowsocks-libev"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestFPStudy(t *testing.T) {
	r, err := FPStudy(FPStudyConfig{Seed: 61, FlowsPerKind: 25000, GFW: gfw.Config{PoolSize: 2000}})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Classes) != 4 {
		t.Fatalf("classes = %d", len(r.Classes))
	}
	rates := map[string]float64{}
	for _, c := range r.Classes {
		rates[c.Kind] = c.Rate
	}
	// Fully encrypted protocols draw substantially more probing than
	// plaintext HTTP; the VMess-like class is hit like Shadowsocks —
	// §9's conjecture.
	if rates["shadowsocks"] <= 2*rates["direct-http"] {
		t.Errorf("shadowsocks %.2f vs direct-http %.2f: detector not separating", rates["shadowsocks"], rates["direct-http"])
	}
	if rates["vmess-like"] <= 2*rates["direct-http"] {
		t.Errorf("vmess-like %.2f vs direct-http %.2f", rates["vmess-like"], rates["direct-http"])
	}
	// Direct TLS remains heavily exposed under pure length+entropy — at
	// least half the Shadowsocks rate. That non-separation is the study's
	// finding: the production GFW must exempt TLS by other means.
	if rates["direct-tls"] < 0.4*rates["shadowsocks"] {
		t.Errorf("direct-tls %.2f unexpectedly low vs shadowsocks %.2f", rates["direct-tls"], rates["shadowsocks"])
	}
	if out := r.Render(); !strings.Contains(out, "probes/1000") {
		t.Error("render incomplete")
	}
}

func TestBanStudy(t *testing.T) {
	r, err := BanStudy(BanStudyConfig{Seed: 71, Triggers: 120000, GFW: gfw.Config{PoolSize: 4000}})
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalProbes < 300 {
		t.Fatalf("probes = %d", r.TotalProbes)
	}
	if r.Dropped+r.Passed != r.TotalProbes {
		t.Error("accounting broken")
	}
	// The paper's point: even the ideal policy lets substantial probing
	// through (every first contact) and replay confirmations leak.
	if r.Passed == 0 || r.ConfirmationsLeaked == 0 {
		t.Errorf("banlist implausibly perfect: passed=%d leaked=%d", r.Passed, r.ConfirmationsLeaked)
	}
	if r.DroppedShare > 0.85 {
		t.Errorf("dropped share %.2f too high; churn model broken", r.DroppedShare)
	}
	if r.BannedIPs != r.Passed {
		t.Error("every passed probe should ban one fresh IP")
	}
	if out := r.Render(); !strings.Contains(out, "churn") {
		t.Error("render incomplete")
	}
}

func TestMimicStudy(t *testing.T) {
	r, err := MimicStudy(MimicStudyConfig{Seed: 81, Triggers: 60000, GFW: gfw.Config{PoolSize: 3000}})
	if err != nil {
		t.Fatal(err)
	}
	// Without a whitelist, framing does not help much (body entropy is
	// unchanged; record framing even lands lengths in the same bands).
	if r.FramedNoWL == 0 {
		t.Error("framed deployment got zero probes even without a whitelist")
	}
	// With a whitelist, framing eliminates probing; plain SS unaffected.
	if r.FramedWL != 0 {
		t.Errorf("whitelisted censor still sent %d probes to framed deployment", r.FramedWL)
	}
	if r.PlainWL < r.PlainNoWL/2 {
		t.Errorf("plain SS exposure changed under whitelist: %d vs %d", r.PlainWL, r.PlainNoWL)
	}
	if out := r.Render(); !strings.Contains(out, "whitelist") {
		t.Error("render incomplete")
	}
}

func TestProbeCost(t *testing.T) {
	r, err := ProbeCost(ProbeCostConfig{Seed: 91, Trials: 40})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]ProbeCostResult{}
	for _, res := range r.Results {
		byName[res.Name] = res
	}
	// Tor-like protocols: a single probe decides.
	if got := byName["tor-like"].MeanProbes; got > 1.2 {
		t.Errorf("tor-like mean probes %.1f, want ≈1", got)
	}
	// Shadowsocks (old, fingerprintable configs): a set of several probes.
	for _, name := range []string{"ss-libev-old stream 8B-IV", "ss-libev-old AEAD", "outline-1.0.6"} {
		got := byName[name].MeanProbes
		if got < 2 {
			t.Errorf("%s: mean probes %.1f, want a set (> 1, as §5.2.2 observes)", name, got)
		}
		if got > 200 {
			t.Errorf("%s: mean probes %.1f, implausibly many", name, got)
		}
	}
	// Timeout-consistent configurations can never be confirmed.
	for _, name := range []string{"ss-libev-new AEAD", "outline-1.0.7", "hardened"} {
		if got := byName[name].MeanProbes; got >= 0 {
			t.Errorf("%s: confirmed with %.1f probes; should be unconfirmable", name, got)
		}
	}
	if out := r.Render(); !strings.Contains(out, "sequential") {
		t.Error("render incomplete")
	}
}
