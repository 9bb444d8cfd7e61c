package experiment

import (
	"fmt"
	"strings"
	"time"

	"sslab/internal/defense"
	"sslab/internal/gfw"
	"sslab/internal/netsim"
	"sslab/internal/reaction"
	"sslab/internal/seedfork"
	"sslab/internal/sscrypto"
	"sslab/internal/stats"
	"sslab/internal/trafficgen"
)

// BrdgrdConfig scales the §7.1 experiment.
type BrdgrdConfig struct {
	Seed int64
	// Hours of virtual time (paper: 403; default 403).
	Hours int
	// ConnsPer5Min matches the paper's driver: 16 connections every five
	// minutes (default 16).
	ConnsPer5Min int
	// OnWindows are [start, end) hours during which brdgrd is active.
	// Default: [100,150) and [250,300), mirroring Figure 11's two
	// activations.
	OnWindows [][2]int
	// WindowMin/WindowMax bound the advertised TCP window in bytes
	// (default 4–64, like the real tool). The threshold ablation sweeps
	// these: windows that still admit >=160-byte first segments stop
	// defeating the detector.
	WindowMin, WindowMax int
	GFW                  gfw.Config
	// Impair, when set, applies a link-impairment profile to every
	// simulated link; nil keeps the idealized lossless network.
	Impair *netsim.LinkProfile `json:"Impair,omitempty"`
}

func (c BrdgrdConfig) withDefaults() BrdgrdConfig {
	if c.Hours == 0 {
		c.Hours = 403
	}
	if c.ConnsPer5Min == 0 {
		c.ConnsPer5Min = 16
	}
	if c.OnWindows == nil {
		c.OnWindows = [][2]int{{100, 150}, {250, 300}}
	}
	if c.WindowMin == 0 {
		c.WindowMin = 4
	}
	if c.WindowMax == 0 {
		c.WindowMax = 64
	}
	return c
}

// BrdgrdReport is Figure 11: probes per hour over the experiment, with
// the shaping windows marked, plus a control server without shaping.
type BrdgrdReport struct {
	Config BrdgrdConfig
	// ProbesPerHour[h] counts prober connections to the shaped server
	// arriving in hour h.
	ProbesPerHour []int
	// ControlPerHour is the same for the unshaped control server.
	ControlPerHour []int
	// MeanRateOff/On are probes per hour while shaping was off/on
	// (excluding a settling hour after each toggle).
	MeanRateOff, MeanRateOn float64
}

// BrdgrdExperiment reproduces §7.1: a Shadowsocks client/server pair with
// brdgrd toggling, plus an identical control pair without brdgrd.
func BrdgrdExperiment(cfg BrdgrdConfig) (*BrdgrdReport, error) {
	cfg = cfg.withDefaults()
	b := newTestbed(cfg.Seed, cfg.Impair, cfg.GFW, "brdgrd.gfw")
	g := b.gfw

	spec, err := sscrypto.Lookup("aes-256-gcm")
	if err != nil {
		return nil, err
	}
	guard := defense.NewBrdgrd(cfg.WindowMin, cfg.WindowMax, seedfork.Fork(cfg.Seed, "brdgrd.guard"))
	guard.SetActive(false)

	shaped := netsim.Endpoint{IP: "178.62.20.1", Port: 8388}
	controlEP := netsim.Endpoint{IP: "178.62.20.2", Port: 8388}
	client := netsim.Endpoint{IP: "150.109.20.1", Port: 40000}
	client2 := netsim.Endpoint{IP: "150.109.20.2", Port: 40001}

	shapedHost, err := NewServerHost(b.sim, reaction.LibevNew, "aes-256-gcm", "pw")
	if err != nil {
		return nil, err
	}
	controlHost, err := NewServerHost(b.sim, reaction.LibevNew, "aes-256-gcm", "pw")
	if err != nil {
		return nil, err
	}
	b.net.AddHost(shaped, shapedHost)
	b.net.AddHost(controlEP, controlHost)

	// Toggle schedule.
	active := func(hour int) bool {
		for _, w := range cfg.OnWindows {
			if hour >= w[0] && hour < w[1] {
				return true
			}
		}
		return false
	}

	end := netsim.Epoch.Add(time.Duration(cfg.Hours) * time.Hour)
	tg := trafficgen.New(seedfork.Fork(cfg.Seed, "brdgrd.trafficgen.shaped"))
	tg2 := trafficgen.New(seedfork.Fork(cfg.Seed, "brdgrd.trafficgen.control"))
	b.until(end, 0, 5*time.Minute, func() {
		hour := int(b.sim.Now().Sub(netsim.Epoch).Hours())
		guard.SetActive(active(hour))
		for i := 0; i < cfg.ConnsPer5Min; i++ {
			// The GFW sees only brdgrd's first segment of the shaped
			// client's flight; the control client sends whole flights.
			wire := tg.FirstWirePacket(spec, trafficgen.CurlHTTPS)
			b.net.Connect(client, shaped, guard.FirstSegment(wire), false, time.Time{})
			b.net.Connect(client2, controlEP, tg2.FirstWirePacket(spec, trafficgen.CurlHTTPS), false, time.Time{})
		}
	})
	b.sim.Run()

	// Bucket probes per hour per destination.
	r := &BrdgrdReport{Config: cfg}
	r.ProbesPerHour = make([]int, cfg.Hours+600) // probes trail past the end
	r.ControlPerHour = make([]int, cfg.Hours+600)
	for i := range g.Log.Records {
		rec := &g.Log.Records[i]
		h := int(rec.Time.Sub(netsim.Epoch).Hours())
		if h < 0 || h >= len(r.ProbesPerHour) {
			continue
		}
		switch rec.DstIP {
		case shaped.IP:
			r.ProbesPerHour[h]++
		case controlEP.IP:
			r.ControlPerHour[h]++
		}
	}

	// Mean rates with a settling hour after each toggle. Probes lag
	// triggers by the replay delay, so attribute by trigger-time state.
	var onSum, onN, offSum, offN int
	for h := 0; h < cfg.Hours; h++ {
		settling := false
		for _, w := range cfg.OnWindows {
			if h == w[0] || h == w[1] {
				settling = true
			}
		}
		if settling {
			continue
		}
		if active(h) {
			onSum += r.ProbesPerHour[h]
			onN++
		} else {
			offSum += r.ProbesPerHour[h]
			offN++
		}
	}
	if onN > 0 {
		r.MeanRateOn = float64(onSum) / float64(onN)
	}
	if offN > 0 {
		r.MeanRateOff = float64(offSum) / float64(offN)
	}
	return r, nil
}

// Render prints an ASCII Figure 11.
func (r *BrdgrdReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 11: probes per hour (brdgrd windows: %v)\n", r.Config.OnWindows)
	fmt.Fprintf(&b, "  mean probe rate: %.2f/h with brdgrd off, %.2f/h with brdgrd on\n\n",
		r.MeanRateOff, r.MeanRateOn)
	// Coarse sparkline: one char per 4 hours.
	b.WriteString(stats.Sparkline(r.ProbesPerHour[:r.Config.Hours], 4))
	b.WriteString("\n")
	for h := 0; h < r.Config.Hours; h += 4 {
		on := false
		for _, w := range r.Config.OnWindows {
			if h >= w[0] && h < w[1] {
				on = true
			}
		}
		if on {
			b.WriteRune('^')
		} else {
			b.WriteRune(' ')
		}
	}
	b.WriteString("  (^ = brdgrd active)\n")
	return b.String()
}
