package experiment

import (
	"fmt"
	"strings"
	"time"

	"sslab/internal/gfw"
	"sslab/internal/netsim"
	"sslab/internal/reaction"
	"sslab/internal/seedfork"
	"sslab/internal/sscrypto"
	"sslab/internal/trafficgen"
)

// BlockingConfig scales the §6 blocking-module experiment.
type BlockingConfig struct {
	Seed int64
	// Days of virtual time (default 30).
	Days int
	// GFW configures the censor. Its Sensitivity, the human-factor gate,
	// defaults to 0.5 here, emulating a politically sensitive period (§6
	// reports blocking spikes during congresses and anniversaries).
	GFW gfw.Config
	// Impair, when set, applies a link-impairment profile to every
	// simulated link; nil keeps the idealized lossless network.
	Impair *netsim.LinkProfile `json:"Impair,omitempty"`
}

func (c BlockingConfig) withDefaults() BlockingConfig {
	if c.Days == 0 {
		c.Days = 30
	}
	if c.GFW.Sensitivity == 0 {
		c.GFW.Sensitivity = 0.5
	}
	return c
}

// BlockedServer describes one server's fate.
type BlockedServer struct {
	Name    string
	Profile reaction.Profile
	Method  string
	Probes  int
	Blocked bool
	ByIP    bool
	// TimeToBlock is from experiment start to the block event.
	TimeToBlock time.Duration
	// OutageObserved counts client connections that failed while blocked.
	OutageObserved int
}

// BlockingReport is the §6 result: which implementations get blocked,
// how (by port or by IP), and what the client experiences.
type BlockingReport struct {
	Config  BlockingConfig
	Servers []BlockedServer
	Events  []gfw.BlockEvent
}

// BlockingExperiment runs five servers of different implementations under
// a censor with raised sensitivity. The §6 shape to reproduce: only the
// servers that both serve replays and exhibit immediate-close
// fingerprints (Shadowsocks-python, ShadowsocksR) get blocked; the
// replay-defended libev and the timeout-consistent OutlineVPN v1.0.7
// survive the same probing.
func BlockingExperiment(cfg BlockingConfig) (*BlockingReport, error) {
	cfg = cfg.withDefaults()
	b, err := newTestbed(cfg.Seed, cfg.Impair, cfg.GFW, "blocking.gfw")
	if err != nil {
		return nil, err
	}
	g := b.gfw

	type entry struct {
		name    string
		profile reaction.Profile
		method  string
		server  netsim.Endpoint
		outage  int
	}
	entries := []*entry{
		{name: "ss-python", profile: reaction.SSPython, method: "aes-256-cfb"},
		{name: "ssr", profile: reaction.SSR, method: "aes-256-ctr"},
		{name: "libev-new", profile: reaction.LibevNew, method: "aes-256-gcm"},
		{name: "outline-1.0.7", profile: reaction.Outline107, method: "chacha20-ietf-poly1305"},
		{name: "hardened", profile: reaction.Hardened, method: "chacha20-ietf-poly1305"},
	}
	for i, e := range entries {
		host, err := NewServerHost(b.sim, e.profile, e.method, "blocking-pw")
		if err != nil {
			return nil, err
		}
		e.server = netsim.Endpoint{IP: fmt.Sprintf("178.62.40.%d", i+1), Port: 8388}
		b.net.AddHost(e.server, host)
	}

	end := netsim.Epoch.Add(time.Duration(cfg.Days) * 24 * time.Hour)
	for i, e := range entries {
		tg := trafficgen.New(seedfork.Fork(cfg.Seed, "blocking.trafficgen", int64(i)))
		spec, err := sscrypto.Lookup(e.method)
		if err != nil {
			return nil, err
		}
		client := netsim.Endpoint{IP: fmt.Sprintf("150.109.40.%d", i+1), Port: 40000}
		b.until(end, time.Duration(i)*time.Second, 30*time.Second, func() {
			if b.net.Connect(client, e.server, tg.FirstWirePacket(spec, trafficgen.CurlHTTPS), false, time.Time{}).Blocked {
				e.outage++
			}
		})
	}
	b.sim.Run()

	report := &BlockingReport{Config: cfg, Events: g.BlockEvents}
	probesByDst := map[string]int{}
	for i := range g.Log.Records {
		probesByDst[g.Log.Records[i].DstIP]++
	}
	for _, e := range entries {
		bs := BlockedServer{
			Name: e.name, Profile: e.profile, Method: e.method,
			Probes: probesByDst[e.server.IP], OutageObserved: e.outage,
		}
		for _, ev := range g.BlockEvents {
			if ev.Server == e.server {
				bs.Blocked = true
				bs.ByIP = ev.ByIP
				bs.TimeToBlock = ev.Time.Sub(netsim.Epoch)
				break
			}
		}
		report.Servers = append(report.Servers, bs)
	}
	return report, nil
}

// Render prints the §6 summary.
func (r *BlockingReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Blocking module (§6): %d days at sensitivity %.2f\n",
		r.Config.Days, r.Config.GFW.Sensitivity)
	fmt.Fprintf(&b, "  %-14s %-22s %-8s %-8s %-10s %s\n",
		"server", "implementation", "probes", "blocked", "mechanism", "client outage (conns)")
	for _, s := range r.Servers {
		mech := "-"
		blocked := "no"
		if s.Blocked {
			blocked = fmt.Sprintf("at %s", s.TimeToBlock.Round(time.Hour))
			if s.ByIP {
				mech = "by IP"
			} else {
				mech = "by port"
			}
		}
		fmt.Fprintf(&b, "  %-14s %-22s %-8d %-8s %-10s %d\n",
			s.Name, s.Profile.Name+" "+s.Profile.Versions, s.Probes, blocked, mech, s.OutageObserved)
	}
	return b.String()
}
