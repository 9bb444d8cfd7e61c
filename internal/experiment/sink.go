package experiment

import (
	"fmt"
	"strings"
	"time"

	"sslab/internal/capture"
	"sslab/internal/entropy"
	"sslab/internal/gfw"
	"sslab/internal/netsim"
	"sslab/internal/probe"
	"sslab/internal/seedfork"
)

// SinkConfig scales the §4.1 random-data experiments.
type SinkConfig struct {
	Seed int64
	// Hours of virtual time per experiment (paper: 310 h of Exp 1.a plus
	// the remainder of the two weeks; default 310).
	Hours int
	// ConnsPerHour is the trigger rate (paper: ≈3000/h in Exp 1.a;
	// default 3000).
	ConnsPerHour int
	GFW          gfw.Config
	// Impair, when set, applies a link-impairment profile to every
	// simulated link; nil keeps the idealized lossless network.
	Impair *netsim.LinkProfile `json:"Impair,omitempty"`
}

func (c SinkConfig) withDefaults() SinkConfig {
	if c.Hours == 0 {
		c.Hours = 310
	}
	if c.ConnsPerHour == 0 {
		c.ConnsPerHour = 3000
	}
	return c
}

// ExpRow is one Table 4 row plus its outcome.
type ExpRow struct {
	Name       string
	LenRange   [2]int
	Entropy    string
	Mode       string
	Triggers   int
	Probes     int
	TypeCounts map[probe.Type]int
}

// SinkReport covers Table 4, Figures 8 and 9, and the staged-probing
// observation of §4.2.
type SinkReport struct {
	Config SinkConfig
	Rows   []ExpRow

	// Figure 8: replay-length stair-step from Exp 1.a.
	ReplayLenMin, ReplayLenMax int
	Rem9ShareLow               float64 // remainder-9 share, lengths 168–263
	Rem2ShareHigh              float64 // remainder-2 share, lengths 384–687
	MixShareMid                float64 // remainders 9+2 share, lengths 264–383

	// Figure 9: replay probability by entropy bin (Exp 3).
	EntropyBins  []float64 // bin upper edges
	ReplayRatios []float64 // replays per trigger in each bin

	// Staged probing: stage-2 types must appear only after the sink →
	// responding switch (Exp 1.a → 1.b).
	Stage2BeforeSwitch int
	Stage2AfterSwitch  int

	// Impairment accounting for Exp 1, the run behind Figure 8 (see
	// transport); omitted on ideal links.
	transport
}

// SinkExperiments runs Exps 1.a, 1.b, 2 and 3 of Table 4.
func SinkExperiments(cfg SinkConfig) (*SinkReport, error) {
	cfg = cfg.withDefaults()
	report := &SinkReport{Config: cfg}

	// --- Exp 1.a + 1.b: high entropy, sink for Hours, then responding. ---
	switchAt := netsim.Epoch.Add(time.Duration(cfg.Hours) * time.Hour)
	triggers1a := 0
	b, triggers, err := runSink(cfg, "exp1", 1, switchAt.Add(time.Duration(cfg.Hours)/2*time.Hour),
		func(host *ServerHost, gen *entropy.Generator) []byte {
			if host.Sim.Now().Before(switchAt) {
				triggers1a++
			} else {
				host.Sink = false
				host.RespondAll = true
			}
			return gen.Random(1 + gen.Intn(1000))
		})
	if err != nil {
		return nil, err
	}
	g := b.gfw

	// Partition probes by the switch time.
	count1a := map[probe.Type]int{}
	count1b := map[probe.Type]int{}
	stage2 := map[probe.Type]bool{probe.R3: true, probe.R4: true, probe.R5: true, probe.R6: true}
	var replayLens []int
	for i := range g.Log.Records {
		rec := &g.Log.Records[i]
		before := rec.Time.Before(switchAt)
		if before {
			count1a[rec.Type]++
		} else {
			count1b[rec.Type]++
		}
		if stage2[rec.Type] {
			if before {
				report.Stage2BeforeSwitch++
			} else {
				report.Stage2AfterSwitch++
			}
		}
		if rec.Type.Replay() && before {
			replayLens = append(replayLens, len(rec.Payload))
		}
	}
	report.Rows = append(report.Rows,
		ExpRow{Name: "1.a", LenRange: [2]int{1, 1000}, Entropy: ">7", Mode: "sink",
			Triggers: triggers1a, Probes: total(count1a), TypeCounts: count1a},
		ExpRow{Name: "1.b", LenRange: [2]int{1, 1000}, Entropy: ">7", Mode: "responding",
			Triggers: triggers - triggers1a, Probes: total(count1b), TypeCounts: count1b},
	)
	report.fillFigure8(replayLens)
	report.transport = b.transport()

	// --- Exp 2: low entropy (<2), sink. ---
	b, triggers, err = runSink(cfg, "exp2", 2, switchAt, func(_ *ServerHost, gen *entropy.Generator) []byte {
		return gen.Payload(1+gen.Intn(1000), 1.2)
	})
	if err != nil {
		return nil, err
	}
	report.Rows = append(report.Rows, ExpRow{Name: "2", LenRange: [2]int{1, 1000}, Entropy: "<2", Mode: "sink",
		Triggers: triggers, Probes: b.gfw.Log.Len(), TypeCounts: b.gfw.Log.TypeCounts()})

	// --- Exp 3: entropy uniform in [0,8], lengths up to 2000. ---
	triggerPerBin := make([]int, figure9Bins)
	b, triggers, err = runSink(cfg, "exp3", 3, switchAt, func(_ *ServerHost, gen *entropy.Generator) []byte {
		h := gen.Float64() * 8
		p := gen.Payload(1+gen.Intn(2000), h)
		triggerPerBin[entropyBin(entropy.Shannon(p))]++
		return p
	})
	if err != nil {
		return nil, err
	}
	report.Rows = append(report.Rows, ExpRow{Name: "3", LenRange: [2]int{1, 2000}, Entropy: "[0,8]", Mode: "sink",
		Triggers: triggers, Probes: b.gfw.Log.Len(), TypeCounts: b.gfw.Log.TypeCounts()})
	report.fillFigure9(b.gfw.Log, triggerPerBin)

	return report, nil
}

func total(m map[probe.Type]int) int {
	t := 0
	for _, c := range m {
		t += c
	}
	return t
}

// runSink runs one sink campaign: the client at 150.109.10.n sends a
// trigger to the sink server at 178.62.10.n every 1/ConnsPerHour until
// end, and returns the finished testbed with the number of triggers
// sent. trigger builds each payload and keeps any per-trigger state.
func runSink(cfg SinkConfig, variant string, n int, end time.Time,
	trigger func(host *ServerHost, gen *entropy.Generator) []byte) (*testbed, int, error) {
	b, err := newTestbed(cfg.Seed, cfg.Impair, cfg.GFW, "sink."+variant+".gfw")
	if err != nil {
		return nil, 0, err
	}
	server := netsim.Endpoint{IP: fmt.Sprintf("178.62.10.%d", n), Port: 443}
	client := netsim.Endpoint{IP: fmt.Sprintf("150.109.10.%d", n), Port: 40000 + n - 1}
	host := b.sink(server)

	gen := entropy.NewGenerator(seedfork.Fork(cfg.Seed, "sink."+variant+".entropy"))
	triggers := 0
	b.until(end, 0, time.Hour/time.Duration(cfg.ConnsPerHour), func() {
		triggers++
		b.net.Connect(client, server, trigger(host, gen), false, time.Time{})
	})
	b.sim.Run()
	return b, triggers, nil
}

// figure9Bins buckets entropies into unit-wide bins.
const figure9Bins = 8

func entropyBin(h float64) int {
	b := int(h)
	if b >= figure9Bins {
		b = figure9Bins - 1
	}
	if b < 0 {
		b = 0
	}
	return b
}

// fillFigure8 computes the stair-step shares.
func (r *SinkReport) fillFigure8(lens []int) {
	if len(lens) == 0 {
		return
	}
	r.ReplayLenMin, r.ReplayLenMax = lens[0], lens[0]
	var lowTotal, low9, highTotal, high2, midTotal, mid92 int
	for _, n := range lens {
		if n < r.ReplayLenMin {
			r.ReplayLenMin = n
		}
		if n > r.ReplayLenMax {
			r.ReplayLenMax = n
		}
		switch {
		case n >= 168 && n <= 263:
			lowTotal++
			if n%16 == 9 {
				low9++
			}
		case n >= 264 && n <= 383:
			midTotal++
			if n%16 == 9 || n%16 == 2 {
				mid92++
			}
		case n >= 384 && n <= 687:
			highTotal++
			if n%16 == 2 {
				high2++
			}
		}
	}
	if lowTotal > 0 {
		r.Rem9ShareLow = float64(low9) / float64(lowTotal)
	}
	if highTotal > 0 {
		r.Rem2ShareHigh = float64(high2) / float64(highTotal)
	}
	if midTotal > 0 {
		r.MixShareMid = float64(mid92) / float64(midTotal)
	}
}

// fillFigure9 bins Exp 3's replays by trigger entropy. An identical
// replay carries the trigger payload verbatim, so the payload's own
// Shannon entropy attributes it to the right bin.
func (r *SinkReport) fillFigure9(log *capture.Log, triggerPerBin []int) {
	replayCount := make([]int, figure9Bins)
	for i := range log.Records {
		rec := &log.Records[i]
		if rec.Type != probe.R1 {
			continue
		}
		replayCount[entropyBin(entropy.Shannon(rec.Payload))]++
	}
	for b := 0; b < figure9Bins; b++ {
		r.EntropyBins = append(r.EntropyBins, float64(b+1))
		ratio := 0.0
		if triggerPerBin[b] > 0 {
			ratio = float64(replayCount[b]) / float64(triggerPerBin[b])
		}
		r.ReplayRatios = append(r.ReplayRatios, ratio)
	}
}

// Render prints Table 4, Figure 8 and Figure 9 summaries.
func (r *SinkReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4: random-data experiments (%d h, %d conns/h)\n", r.Config.Hours, r.Config.ConnsPerHour)
	fmt.Fprintf(&b, "  %-4s %-10s %-8s %-11s %-10s %-8s R1/R2/NR2/R3/R4\n", "Exp", "len", "entropy", "mode", "triggers", "probes")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-4s [%d,%d] %-8s %-11s %-10d %-8d %d/%d/%d/%d/%d\n",
			row.Name, row.LenRange[0], row.LenRange[1], row.Entropy, row.Mode,
			row.Triggers, row.Probes,
			row.TypeCounts[probe.R1], row.TypeCounts[probe.R2], row.TypeCounts[probe.NR2],
			row.TypeCounts[probe.R3], row.TypeCounts[probe.R4])
	}
	fmt.Fprintf(&b, "\nFigure 8: replay lengths %d–%d; rem-9 share (168–263) = %.0f%%; rem-2 share (384–687) = %.0f%%; mixed (264–383) = %.0f%%\n",
		r.ReplayLenMin, r.ReplayLenMax, r.Rem9ShareLow*100, r.Rem2ShareHigh*100, r.MixShareMid*100)
	fmt.Fprintf(&b, "Figure 9: replay-to-trigger ratio by entropy bin:\n")
	for i, edge := range r.EntropyBins {
		fmt.Fprintf(&b, "  H<%.0f: %.4f%%\n", edge, r.ReplayRatios[i]*100)
	}
	ratio := 0.0
	if r.ReplayRatios[3] > 0 {
		ratio = r.ReplayRatios[7] / ((r.ReplayRatios[2] + r.ReplayRatios[3]) / 2)
	}
	fmt.Fprintf(&b, "  (H≈7.5 vs H≈3: %.1f× — paper: ≈4×)\n", ratio)
	fmt.Fprintf(&b, "Staged probing: stage-2 probes before switch = %d, after = %d\n",
		r.Stage2BeforeSwitch, r.Stage2AfterSwitch)
	return b.String()
}
