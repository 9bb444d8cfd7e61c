// Benchmarks regenerating every table and figure in the paper's
// evaluation, plus ablations of the design choices DESIGN.md calls out.
// Each benchmark runs the relevant experiment and reports the headline
// quantities as custom metrics so `go test -bench` output doubles as a
// results table (EXPERIMENTS.md records one full run).
package sslab_test

import (
	"fmt"
	"math"
	"testing"
	"time"

	"sslab"
	"sslab/internal/bloom"
	"sslab/internal/entropy"
	"sslab/internal/experiment"
	"sslab/internal/gfw"
	"sslab/internal/netsim"
	"sslab/internal/probesim"
	"sslab/internal/reaction"
	"sslab/internal/replay"
	"sslab/internal/seedfork"
	"sslab/internal/sscrypto"
	"sslab/internal/stats"
)

// ssReport runs (and caches) one mid-scale Shadowsocks experiment shared
// by the per-figure benchmarks.
var ssReportCache *experiment.ShadowsocksReport

func ssReport(b *testing.B) *experiment.ShadowsocksReport {
	b.Helper()
	if ssReportCache == nil {
		r, err := sslab.RunShadowsocksExperiment(sslab.ShadowsocksConfig{
			Seed: 1, Days: 25, ConnsPerPairPerHour: 90,
			GFW: gfw.Config{PoolSize: 8000},
		})
		if err != nil {
			b.Fatal(err)
		}
		ssReportCache = r
	}
	return ssReportCache
}

var sinkReportCache *experiment.SinkReport

func sinkReport(b *testing.B) *experiment.SinkReport {
	b.Helper()
	if sinkReportCache == nil {
		r, err := sslab.RunSinkExperiments(sslab.SinkConfig{
			Seed: 2, Hours: 100, ConnsPerHour: 2500,
			GFW: gfw.Config{PoolSize: 5000},
		})
		if err != nil {
			b.Fatal(err)
		}
		sinkReportCache = r
	}
	return sinkReportCache
}

// BenchmarkTable1_Timeline renders the experiment timeline.
func BenchmarkTable1_Timeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiment.Table1().Rows) != 3 {
			b.Fatal("timeline rows")
		}
	}
}

// BenchmarkFigure2_RandomProbeLengths: NR1 trio lengths and the ≈3×
// NR2-to-NR1 ratio.
func BenchmarkFigure2_RandomProbeLengths(b *testing.B) {
	r := ssReport(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.NR1Lengths.Keys()
	}
	b.ReportMetric(float64(r.NR2Count), "NR2-probes")
	b.ReportMetric(float64(r.NR1Total), "NR1-probes")
	b.ReportMetric(float64(r.NR2Count)/math.Max(1, float64(r.NR1Total)), "NR2/NR1-ratio")
}

// BenchmarkFigure3_ProbesPerIP: unique prober IPs and reuse.
func BenchmarkFigure3_ProbesPerIP(b *testing.B) {
	r := ssReport(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Log.ProbesPerIP()
	}
	b.ReportMetric(float64(r.UniqueIPs), "unique-IPs")
	b.ReportMetric(r.MultiUseFraction*100, "multi-use-%")
	b.ReportMetric(float64(r.MaxPerIP), "max-per-IP")
}

// BenchmarkTable2_TopProberIPs: the top-10 list.
func BenchmarkTable2_TopProberIPs(b *testing.B) {
	r := ssReport(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		top := r.Log.TopIPs(10)
		if len(top) != 10 {
			b.Fatal("top-10 incomplete")
		}
	}
	b.ReportMetric(float64(r.TopIPs[0].Count), "top-IP-count")
}

// BenchmarkFigure4_DatasetOverlap: Venn regions against historical sets.
func BenchmarkFigure4_DatasetOverlap(b *testing.B) {
	r := ssReport(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Overlap
	}
	b.ReportMetric(float64(r.Overlap.AB), "ours∩ensafi")
	b.ReportMetric(float64(r.Overlap.AC), "ours∩dunna")
}

// BenchmarkTable3_ASDistribution: unique IPs per AS.
func BenchmarkTable3_ASDistribution(b *testing.B) {
	r := ssReport(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Log.ASCounts()
	}
	b.ReportMetric(float64(r.ASCounts[4837]), "AS4837")
	b.ReportMetric(float64(r.ASCounts[4134]), "AS4134")
}

// BenchmarkFigure5_SourcePorts: the ephemeral-range share.
func BenchmarkFigure5_SourcePorts(b *testing.B) {
	r := ssReport(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Log.SourcePorts()
	}
	b.ReportMetric(r.EphemeralPortShare*100, "ephemeral-%")
	b.ReportMetric(float64(r.MinPort), "min-port")
}

// BenchmarkFigure6_TSvalProcesses: timestamp-process clustering.
func BenchmarkFigure6_TSvalProcesses(b *testing.B) {
	r := ssReport(b)
	pts := r.Log.TSPoints()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clusters := stats.ClusterTSvals(pts, []float64{250, 1000}, 100000)
		if len(clusters) == 0 {
			b.Fatal("no clusters")
		}
	}
	b.ReportMetric(float64(r.TSClusters), "processes")
	b.ReportMetric(r.DominantRate, "dominant-Hz")
}

// BenchmarkFigure7_ReplayDelay: the delay CDF anchors.
func BenchmarkFigure7_ReplayDelay(b *testing.B) {
	r := ssReport(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		all, _ := r.Log.ReplayDelays()
		if all.Len() == 0 {
			b.Fatal("no delays")
		}
	}
	b.ReportMetric(r.DelayAll.P(1)*100, "P(1s)-%")
	b.ReportMetric(r.DelayAll.P(60)*100, "P(1min)-%")
	b.ReportMetric(r.DelayAll.P(900)*100, "P(15min)-%")
	b.ReportMetric(r.DelayAll.Max()/3600, "max-delay-h")
}

// BenchmarkTable4_RandomDataExperiments: the four-row experiment matrix.
func BenchmarkTable4_RandomDataExperiments(b *testing.B) {
	r := sinkReport(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(r.Rows) != 4 {
			b.Fatal("rows")
		}
	}
	b.ReportMetric(float64(r.Rows[0].Probes), "exp1a-probes")
	b.ReportMetric(float64(r.Rows[2].Probes), "exp2-probes")
}

// BenchmarkFigure8_ReplayLengthStairstep: mod-16 remainder shares.
func BenchmarkFigure8_ReplayLengthStairstep(b *testing.B) {
	r := sinkReport(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Rem9ShareLow
	}
	b.ReportMetric(r.Rem9ShareLow*100, "rem9-share-%")
	b.ReportMetric(r.Rem2ShareHigh*100, "rem2-share-%")
	b.ReportMetric(float64(r.ReplayLenMin), "min-replay-len")
	b.ReportMetric(float64(r.ReplayLenMax), "max-replay-len")
}

// BenchmarkFigure9_EntropyReplayRate: replay rate vs entropy.
func BenchmarkFigure9_EntropyReplayRate(b *testing.B) {
	r := sinkReport(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.ReplayRatios
	}
	low := (r.ReplayRatios[2] + r.ReplayRatios[3]) / 2
	b.ReportMetric(r.ReplayRatios[7]/math.Max(low, 1e-9), "H7.5-vs-H3-ratio")
}

// BenchmarkStagedProbing: stage-2 probes appear only after the server
// responds (§4.2).
func BenchmarkStagedProbing(b *testing.B) {
	r := sinkReport(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Stage2AfterSwitch
	}
	b.ReportMetric(float64(r.Stage2BeforeSwitch), "stage2-before")
	b.ReportMetric(float64(r.Stage2AfterSwitch), "stage2-after")
}

// BenchmarkFigure10a_StreamReactions: the stream-cipher reaction matrix.
func BenchmarkFigure10a_StreamReactions(b *testing.B) {
	spec, _ := sscrypto.Lookup("chacha20")
	for i := 0; i < b.N; i++ {
		m, err := probesim.ScanRandom(reaction.LibevOld, spec, "bench-pw", probesim.RandomProbeLengths(), 30, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if m.Cells[9].Dominant() != reaction.RST {
			b.Fatal("len-9 band wrong")
		}
	}
}

// BenchmarkFigure10b_AEADReactions: the AEAD reaction matrix.
func BenchmarkFigure10b_AEADReactions(b *testing.B) {
	spec, _ := sscrypto.Lookup("chacha20-ietf-poly1305")
	for i := 0; i < b.N; i++ {
		m, err := probesim.ScanRandom(reaction.Outline106, spec, "bench-pw", probesim.RandomProbeLengths(), 10, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if m.Cells[50].Dominant() != reaction.FINACK {
			b.Fatal("len-50 band wrong")
		}
	}
}

// BenchmarkTable5_ReplayReactions: replay reactions per implementation.
func BenchmarkTable5_ReplayReactions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := sslab.RunReactionMatrices(sslab.MatrixConfig{Seed: int64(i), Trials: 0})
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Replay) != 9 {
			b.Fatal("replay rows")
		}
	}
}

// BenchmarkFigure11_Brdgrd: probing collapse under first-flight shaping.
func BenchmarkFigure11_Brdgrd(b *testing.B) {
	var off, on float64
	for i := 0; i < b.N; i++ {
		r, err := sslab.RunBrdgrdExperiment(sslab.BrdgrdConfig{
			Seed: int64(i + 1), Hours: 160, OnWindows: [][2]int{{60, 110}},
			GFW: gfw.Config{PoolSize: 3000},
		})
		if err != nil {
			b.Fatal(err)
		}
		off, on = r.MeanRateOff, r.MeanRateOn
	}
	b.ReportMetric(off, "probes/h-off")
	b.ReportMetric(on, "probes/h-on")
}

// BenchmarkBlockingModule: the §6 blocking policy end to end — the
// stream, replay-serving implementations get blocked, the rest survive.
func BenchmarkBlockingModule(b *testing.B) {
	var blocked, survived float64
	for i := 0; i < b.N; i++ {
		r, err := sslab.RunBlockingExperiment(sslab.BlockingConfig{
			Seed: int64(i + 1), Days: 15,
			GFW: gfw.Config{PoolSize: 3000, Sensitivity: 0.8},
		})
		if err != nil {
			b.Fatal(err)
		}
		blocked, survived = 0, 0
		for _, s := range r.Servers {
			if s.Blocked {
				blocked++
			} else {
				survived++
			}
		}
	}
	b.ReportMetric(blocked, "blocked-servers")
	b.ReportMetric(survived, "surviving-servers")
	_ = runBlockingCampaign // kept for the raw-campaign helper benchmark below
}

// BenchmarkBlockingCampaignRaw drives the raw GFW blocking path without
// the experiment harness.
func BenchmarkBlockingCampaignRaw(b *testing.B) {
	events := 0
	for i := 0; i < b.N; i++ {
		events = runBlockingCampaign(int64(i))
	}
	b.ReportMetric(float64(events), "block-events")
}

// --- Ablations ------------------------------------------------------------

// BenchmarkAblationReplayFilters: nonce-only vs timestamp+nonce filters
// against delayed replays spanning a restart.
func BenchmarkAblationReplayFilters(b *testing.B) {
	b.Run("nonce-only", func(b *testing.B) {
		served := benchFilterAblation(b, false)
		b.ReportMetric(served*100, "delayed-replays-served-%")
	})
	b.Run("timestamp", func(b *testing.B) {
		served := benchFilterAblation(b, true)
		b.ReportMetric(served*100, "delayed-replays-served-%")
	})
}

// BenchmarkAblationBloom: replay-filter memory/false-positive
// trade-off, timing the filter's per-nonce TestAndAdd.
func BenchmarkAblationBloom(b *testing.B) {
	for _, fp := range []float64{1e-3, 1e-6} {
		fp := fp
		name := "fp-1e-3"
		if fp == 1e-6 {
			name = "fp-1e-6"
		}
		b.Run(name, func(b *testing.B) {
			p := bloom.NewPingPong(1<<16, fp)
			buf := make([]byte, 32)
			for i := 0; i < b.N; i++ {
				buf[0], buf[1], buf[2], buf[3] = byte(i), byte(i>>8), byte(i>>16), byte(i>>24)
				p.TestAndAdd(buf)
			}
		})
	}
}

// BenchmarkAblationDetectorFeatures: detector with the length or entropy
// feature removed records far more (or fewer) of the wrong payloads.
func BenchmarkAblationDetectorFeatures(b *testing.B) {
	variants := []struct {
		name string
		cfg  gfw.Config
	}{
		{"full", gfw.Config{}},
		{"no-length", gfw.Config{DisableLengthFeature: true}},
		{"no-entropy", gfw.Config{DisableEntropyFeature: true}},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			var recorded float64
			for i := 0; i < b.N; i++ {
				cfg := v.cfg
				cfg.PoolSize = 2000
				r, err := sslab.RunSinkExperiments(sslab.SinkConfig{
					Seed: int64(i + 5), Hours: 20, ConnsPerHour: 1500, GFW: cfg,
				})
				if err != nil {
					b.Fatal(err)
				}
				recorded = float64(r.Rows[0].Probes)
			}
			b.ReportMetric(recorded, "exp1a-probes")
		})
	}
}

// BenchmarkAblationBrdgrdThreshold: sweep the shaping window and find
// where evasion stops working (windows larger than the 160-byte trigger
// floor stop helping).
func BenchmarkAblationBrdgrdThreshold(b *testing.B) {
	for _, win := range []int{8, 64, 128, 256} {
		win := win
		b.Run(fmt.Sprintf("window-%dB", win), func(b *testing.B) {
			var on float64
			for i := 0; i < b.N; i++ {
				r, err := experiment.BrdgrdExperiment(experiment.BrdgrdConfig{
					Seed: int64(i + 1), Hours: 120, OnWindows: [][2]int{{30, 90}},
					ConnsPer5Min: 16, WindowMin: win, WindowMax: win,
					GFW: gfw.Config{PoolSize: 2000},
				})
				if err != nil {
					b.Fatal(err)
				}
				on = r.MeanRateOn
			}
			b.ReportMetric(on, "probes/h-on")
		})
	}
}

// BenchmarkCryptoThroughput: the cipher substrate.
func BenchmarkCryptoThroughput(b *testing.B) {
	for _, method := range []string{"aes-256-gcm", "chacha20-ietf-poly1305"} {
		method := method
		b.Run(method, func(b *testing.B) {
			spec, _ := sscrypto.Lookup(method)
			key := spec.Key("bench")
			subkey := key
			aead, err := spec.NewAEAD(subkey)
			if err != nil {
				b.Fatal(err)
			}
			nonce := make([]byte, aead.NonceSize())
			msg := make([]byte, 1400)
			dst := make([]byte, 0, len(msg)+aead.Overhead())
			b.SetBytes(int64(len(msg)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = aead.Seal(dst[:0], nonce, msg, nil)
			}
		})
	}
}

// BenchmarkExtensionFPStudy: probing exposure per traffic class (§9).
func BenchmarkExtensionFPStudy(b *testing.B) {
	var ss, tls, http float64
	for i := 0; i < b.N; i++ {
		r, err := sslab.RunFPStudy(sslab.FPStudyConfig{
			Seed: int64(i + 1), FlowsPerKind: 30000, GFW: gfw.Config{PoolSize: 2000},
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range r.Classes {
			switch c.Kind {
			case "shadowsocks":
				ss = c.Rate
			case "direct-tls":
				tls = c.Rate
			case "direct-http":
				http = c.Rate
			}
		}
	}
	b.ReportMetric(ss, "ss-probes/1k")
	b.ReportMetric(tls, "tls-probes/1k")
	b.ReportMetric(http, "http-probes/1k")
}

// BenchmarkExtensionBanStudy: the ideal prober-IP banlist (§3.3).
func BenchmarkExtensionBanStudy(b *testing.B) {
	var dropped float64
	for i := 0; i < b.N; i++ {
		r, err := sslab.RunBanStudy(sslab.BanStudyConfig{
			Seed: int64(i + 1), Triggers: 100000, GFW: gfw.Config{PoolSize: 3000},
		})
		if err != nil {
			b.Fatal(err)
		}
		dropped = r.DroppedShare
	}
	b.ReportMetric(dropped*100, "dropped-%")
}

// BenchmarkExtensionMimicStudy: TLS framing × TLS whitelist (§8 mechanism).
func BenchmarkExtensionMimicStudy(b *testing.B) {
	var framedWL, framedNoWL float64
	for i := 0; i < b.N; i++ {
		r, err := sslab.RunMimicStudy(sslab.MimicStudyConfig{
			Seed: int64(i + 1), Triggers: 40000, GFW: gfw.Config{PoolSize: 2000},
		})
		if err != nil {
			b.Fatal(err)
		}
		framedWL, framedNoWL = float64(r.FramedWL), float64(r.FramedNoWL)
	}
	b.ReportMetric(framedNoWL, "framed-probes-noWL")
	b.ReportMetric(framedWL, "framed-probes-WL")
}

// BenchmarkExtensionProbeCost: probes-to-confirmation per implementation.
func BenchmarkExtensionProbeCost(b *testing.B) {
	var tor, old float64
	for i := 0; i < b.N; i++ {
		r, err := sslab.RunProbeCost(sslab.ProbeCostConfig{Seed: int64(i + 1), Trials: 30})
		if err != nil {
			b.Fatal(err)
		}
		for _, res := range r.Results {
			switch res.Name {
			case "tor-like":
				tor = res.MeanProbes
			case "ss-libev-old stream 8B-IV":
				old = res.MeanProbes
			}
		}
	}
	b.ReportMetric(tor, "tor-probes")
	b.ReportMetric(old, "ss-stream-probes")
}

// --- helpers ---------------------------------------------------------------

// benchFilterAblation measures the fraction of 570-hour-delayed replays
// (spanning a server restart) that each filter kind serves.
func benchFilterAblation(b *testing.B, timed bool) float64 {
	b.Helper()
	served, trials := 0, 0
	t0 := netsim.Epoch
	later := t0.Add(570 * time.Hour)
	for i := 0; i < b.N; i++ {
		nonce := []byte{byte(i), byte(i >> 8), byte(i >> 16), 3}
		var isReplay bool
		if timed {
			tf := replay.NewTimedFilter(2 * time.Minute)
			tf.Replay(nonce, t0, t0) // genuine connection
			// A restart loses nothing the timed filter depends on.
			isReplay = tf.Replay(nonce, t0, later)
		} else {
			nf := replay.NewNonceFilter(1024)
			nf.Replay(nonce, t0, t0) // genuine connection
			nf.Forget()              // server restart before the delayed replay
			isReplay = nf.Replay(nonce, later, later)
		}
		trials++
		if !isReplay {
			served++
		}
	}
	if trials == 0 {
		return 0
	}
	return float64(served) / float64(trials)
}

// runBlockingCampaign drives genuine traffic at a responding server under
// a maximally sensitive censor and reports the number of block events.
func runBlockingCampaign(seed int64) int {
	sim := sslab.NewSim()
	network := sslab.NewNetwork(sim)
	censor := sslab.NewCensor(sslab.CensorEnv{Sim: sim, Net: network},
		sslab.WithCensorConfig(gfw.Config{Seed: seed, Sensitivity: 1, BlockThreshold: 6, PoolSize: 2000}))

	server := netsim.Endpoint{IP: "178.62.99.1", Port: 8388}
	client := netsim.Endpoint{IP: "150.109.99.1", Port: 40000}
	seen := map[string]bool{}
	network.AddHost(server, netsim.HostFunc(func(f *netsim.Flow) netsim.Outcome {
		if !f.Probe {
			seen[string(f.FirstPayload)] = true
			return netsim.Outcome{Reaction: reaction.Timeout}
		}
		if seen[string(f.FirstPayload)] {
			return netsim.Outcome{Reaction: reaction.Data, ResponseLen: 700}
		}
		return netsim.Outcome{Reaction: reaction.RST}
	}))

	gen := entropy.NewGenerator(seedfork.Fork(seed, "bench.blocking.traffic"))
	sent := 0
	var tick func()
	tick = func() {
		if sent >= 20000 {
			return
		}
		sent++
		network.Connect(client, server, gen.Random(1+gen.Intn(1000)), false, time.Time{})
		sim.After(5*time.Second, tick)
	}
	sim.After(0, tick)
	sim.Run()
	return len(censor.BlockEvents)
}
