package experiment

import (
	"fmt"
	"strings"
	"time"

	"sslab/internal/defense"
	"sslab/internal/entropy"
	"sslab/internal/gfw"
	"sslab/internal/netsim"
	"sslab/internal/seedfork"
	"sslab/internal/sscrypto"
	"sslab/internal/trafficgen"
)

// BanStudyConfig scales the prober-IP-banning study.
type BanStudyConfig struct {
	Seed     int64
	Triggers int // default 300000
	GFW      gfw.Config
	// Impair, when set, applies a link-impairment profile to every
	// simulated link; nil keeps the idealized lossless network.
	Impair *netsim.LinkProfile `json:"Impair,omitempty"`
}

// BanStudyReport quantifies §3.3's claim that banning prober IPs is a
// weak defense: even the maximal policy (ban every prober address forever
// after its first probe) lets every first-contact probe through, and the
// pool's churn keeps supplying fresh addresses.
type BanStudyReport struct {
	Config       BanStudyConfig
	TotalProbes  int
	Dropped      int     // probes a banlist would have stopped
	Passed       int     // probes from never-before-seen addresses
	DroppedShare float64 // Dropped / TotalProbes
	BannedIPs    int
	// ConfirmationsLeaked counts replay probes that still reached the
	// server from fresh IPs — each one is a potential confirmation the
	// ban list failed to prevent.
	ConfirmationsLeaked int
}

// BanStudy runs a high-entropy sink campaign and replays the probe stream
// through the ideal ban list.
func BanStudy(cfg BanStudyConfig) (*BanStudyReport, error) {
	if cfg.Triggers == 0 {
		cfg.Triggers = 300000
	}
	b := newTestbed(cfg.Seed, cfg.Impair, cfg.GFW, "banstudy.gfw")
	g := b.gfw
	server := netsim.Endpoint{IP: "178.62.60.1", Port: 443}
	client := netsim.Endpoint{IP: "150.109.60.1", Port: 40000}
	b.sink(server)

	gen := entropy.NewGenerator(seedfork.Fork(cfg.Seed, "banstudy.entropy"))
	b.times(cfg.Triggers, 0, 5*time.Second, func() {
		b.net.Connect(client, server, gen.Random(1+gen.Intn(1000)), false, time.Time{})
	})
	b.sim.Run()

	ban := defense.NewIPBanlist()
	r := &BanStudyReport{Config: cfg, TotalProbes: g.Log.Len()}
	for i := range g.Log.Records {
		rec := &g.Log.Records[i]
		if ban.Check(rec.SrcIP) {
			r.Dropped++
		} else if rec.Type.Replay() {
			r.ConfirmationsLeaked++
		}
	}
	r.Passed = ban.Passed
	r.BannedIPs = ban.Size()
	if r.TotalProbes > 0 {
		r.DroppedShare = float64(r.Dropped) / float64(r.TotalProbes)
	}
	return r, nil
}

// Render prints the ban-study summary.
func (r *BanStudyReport) Render() string {
	return fmt.Sprintf(
		"Prober-IP banning study (§3.3): %d probes, ideal ban-after-first-probe policy\n"+
			"  stopped: %d (%.0f%%)   still delivered: %d (every first contact)\n"+
			"  ban list grew to %d addresses; %d replay probes still reached the server\n"+
			"  conclusion: churn defeats banning — the paper's caution holds\n",
		r.TotalProbes, r.Dropped, r.DroppedShare*100, r.Passed, r.BannedIPs, r.ConfirmationsLeaked)
}

// MimicStudyConfig scales the TLS-framing study.
type MimicStudyConfig struct {
	Seed     int64
	Triggers int // per server; default 200000
	GFW      gfw.Config
	// Impair, when set, applies a link-impairment profile to every
	// simulated link; nil keeps the idealized lossless network.
	Impair *netsim.LinkProfile `json:"Impair,omitempty"`
}

// MimicStudyReport compares a TLS-framed Shadowsocks deployment against a
// plain one, under censors with and without a TLS whitelist.
type MimicStudyReport struct {
	Config MimicStudyConfig
	// Probes[whitelisted][framed] — four cells.
	PlainNoWL  int
	FramedNoWL int
	PlainWL    int
	FramedWL   int
}

// MimicStudy runs the four-cell experiment.
func MimicStudy(cfg MimicStudyConfig) (*MimicStudyReport, error) {
	if cfg.Triggers == 0 {
		cfg.Triggers = 200000
	}
	spec, err := sscrypto.Lookup("chacha20-ietf-poly1305")
	if err != nil {
		return nil, err
	}
	framing := defense.TLSRecordFraming{}

	run := func(whitelist, framed bool, cell int64) int {
		gcfg := cfg.GFW
		gcfg.TLSWhitelist = whitelist
		b := newTestbed(cfg.Seed, cfg.Impair, gcfg, "mimic.gfw", cell)
		server := netsim.Endpoint{IP: "178.62.61.1", Port: 443}
		client := netsim.Endpoint{IP: "150.109.61.1", Port: 40000}
		b.sink(server)

		tg := trafficgen.New(seedfork.Fork(cfg.Seed, "mimic.trafficgen", cell))
		b.times(cfg.Triggers, 0, 5*time.Second, func() {
			wire := tg.FirstWirePacket(spec, trafficgen.BrowseAlexa)
			if framed {
				wire = framing.FrameFirstPacket(wire)
			}
			b.net.Connect(client, server, wire, false, time.Time{})
		})
		b.sim.Run()
		return b.gfw.Log.Len()
	}

	return &MimicStudyReport{
		Config:     cfg,
		PlainNoWL:  run(false, false, 1),
		FramedNoWL: run(false, true, 2),
		PlainWL:    run(true, false, 3),
		FramedWL:   run(true, true, 4),
	}, nil
}

// Render prints the four-cell comparison.
func (r *MimicStudyReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "TLS-framing study (§8 mechanism): probes per %d connections\n", r.Config.Triggers)
	fmt.Fprintf(&b, "  %-26s %-12s %s\n", "censor \\ deployment", "plain SS", "TLS-framed SS")
	fmt.Fprintf(&b, "  %-26s %-12d %d\n", "length+entropy only", r.PlainNoWL, r.FramedNoWL)
	fmt.Fprintf(&b, "  %-26s %-12d %d\n", "with TLS whitelist", r.PlainWL, r.FramedWL)
	b.WriteString("  framing helps exactly when the censor cannot afford to probe TLS\n")
	return b.String()
}
