package experiment

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"sslab/internal/capture"
	"sslab/internal/gfw"
	"sslab/internal/netsim"
	"sslab/internal/probe"
	"sslab/internal/reaction"
	"sslab/internal/seedfork"
	"sslab/internal/sscrypto"
	"sslab/internal/trafficgen"
)

// ShadowsocksConfig scales the §3.1 experiment.
type ShadowsocksConfig struct {
	Seed int64
	// Days of virtual experiment time (paper: ~115; default 115).
	Days int
	// ConnsPerPairPerHour is the fetch rate of each client/server pair
	// (default 120 — a fetch every 30 s, as the paper's curl loops did).
	ConnsPerPairPerHour int
	// GFW overrides parts of the censor configuration (Seed is forced to
	// the experiment seed).
	GFW gfw.Config
	// Impair, when set, applies a link-impairment profile to every
	// simulated link (loss, jitter, outages — see netsim.LinkProfile).
	// nil keeps the idealized lossless network.
	Impair *netsim.LinkProfile `json:"Impair,omitempty"`
}

func (c ShadowsocksConfig) withDefaults() ShadowsocksConfig {
	if c.Days == 0 {
		c.Days = 115
	}
	if c.ConnsPerPairPerHour == 0 {
		c.ConnsPerPairPerHour = 120
	}
	return c
}

// PairResult summarizes one client/server pair.
type PairResult struct {
	Name       string
	Profile    reaction.Profile
	Method     string
	Probes     int
	TypeCounts map[probe.Type]int
	Stage      int
}

// ShadowsocksReport aggregates everything the §3.1 experiment yields.
type ShadowsocksReport struct {
	Config   ShadowsocksConfig
	Triggers int
	Probes   int
	Pairs    []PairResult

	// ControlProbes must stay zero: the never-used control host receiving
	// no probes is what rules out proactive scanning (§4).
	ControlProbes int

	// Figures 2, 3 and 5–7 and Tables 2 and 3: the capture's own
	// analysis, marshalled in place.
	capture.Summary

	// Figure 4.
	Overlap capture.Overlap

	// Impairment accounting (see transport); omitted on ideal links.
	transport

	// Log is the raw probe capture for further analysis. It is excluded
	// from the report's JSON form (shard reports must stay compact;
	// use cmd/gfwsim -dump for the full capture).
	Log *capture.Log `json:"-"`
}

// ssPair is one §3.1 client/server pair: a server implementation and
// cipher, and the workload its client drives.
type ssPair struct {
	name    string
	profile reaction.Profile
	method  string
	wl      trafficgen.Workload
}

// ShadowsocksExperiment reproduces §3.1: five Shadowsocks-libev pairs, one
// OutlineVPN pair, and an untouched control host, run for months of
// virtual time under the GFW model.
func ShadowsocksExperiment(cfg ShadowsocksConfig) (*ShadowsocksReport, error) {
	cfg = cfg.withDefaults()
	b, err := newTestbed(cfg.Seed, cfg.Impair, cfg.GFW, "shadowsocks.gfw")
	if err != nil {
		return nil, err
	}
	g := b.gfw

	// Five Shadowsocks-libev pairs (two old, three new, as in §3.1) plus
	// one OutlineVPN pair driven by Alexa browsing.
	pairs := []ssPair{
		{"libev-v3.1.3-a", reaction.LibevOld, "aes-256-gcm", trafficgen.CurlLoop},
		{"libev-v3.1.3-b", reaction.LibevOld, "aes-256-ctr", trafficgen.CurlLoop},
		{"libev-v3.3.1-a", reaction.LibevNew, "aes-256-gcm", trafficgen.CurlLoop},
		{"libev-v3.3.1-b", reaction.LibevNew, "chacha20-ietf", trafficgen.CurlLoop},
		{"libev-v3.3.1-c", reaction.LibevNew, "aes-128-gcm", trafficgen.CurlLoop},
		{"outline-v1.0.7", reaction.Outline107, "chacha20-ietf-poly1305", trafficgen.BrowseAlexa},
	}
	servers := make([]netsim.Endpoint, len(pairs))
	for i, p := range pairs {
		host, err := NewServerHost(b.sim, p.profile, p.method, "experiment-pw")
		if err != nil {
			return nil, err
		}
		servers[i] = netsim.Endpoint{IP: fmt.Sprintf("178.62.1.%d", i+1), Port: 8388}
		b.net.AddHost(servers[i], host)
	}

	// The control host: same datacenter, never connected to.
	control := b.sink(netsim.Endpoint{IP: "178.62.1.250", Port: 8388})

	// Drive each pair's curl/browse loop.
	end := netsim.Epoch.Add(time.Duration(cfg.Days) * 24 * time.Hour)
	interval := time.Hour / time.Duration(cfg.ConnsPerPairPerHour)
	for i, p := range pairs {
		tg := trafficgen.New(seedfork.Fork(cfg.Seed, "shadowsocks.trafficgen", int64(i)))
		spec, err := sscrypto.Lookup(p.method)
		if err != nil {
			return nil, err
		}
		client := netsim.Endpoint{IP: fmt.Sprintf("150.109.2.%d", i+1), Port: 50000}
		b.until(end, time.Duration(i)*time.Second, interval, func() {
			b.net.Connect(client, servers[i], tg.FirstWirePacket(spec, p.wl), false, time.Time{})
		})
	}
	b.sim.Run()

	r := &ShadowsocksReport{Config: cfg, Summary: capture.Summarize(g.Log), Log: g.Log, transport: b.transport()}
	r.Triggers = g.Triggers
	r.Probes = g.Log.Len()
	r.ControlProbes = control.ProbesSeen

	// Per-pair type analysis.
	typeByDst := map[string]map[probe.Type]int{}
	for i := range g.Log.Records {
		rec := &g.Log.Records[i]
		m, ok := typeByDst[rec.DstIP]
		if !ok {
			m = map[probe.Type]int{}
			typeByDst[rec.DstIP] = m
		}
		m[rec.Type]++
	}
	for i, p := range pairs {
		tc := typeByDst[servers[i].IP]
		r.Pairs = append(r.Pairs, PairResult{
			Name: p.name, Profile: p.profile, Method: p.method,
			Probes: total(tc), TypeCounts: tc, Stage: g.Stage(servers[i]),
		})
	}

	// Figure 4: overlap with synthetic Ensafi/Dunna prober sets, built to
	// the region cardinalities documented in DESIGN.md.
	r.Overlap = syntheticOverlap(g, cfg.Seed)
	return r, nil
}

// syntheticOverlap builds the Figure 4 comparison: the paper's datasets
// are private, so the historical sets are synthesized with the documented
// overlap sizes relative to our observed prober IPs.
func syntheticOverlap(g *gfw.GFW, seed int64) capture.Overlap {
	ours := g.Log.UniqueIPs()
	rng := rand.New(rand.NewSource(seedfork.Fork(seed, "shadowsocks.overlap")))

	pickFromOurs := func(n int) []string {
		out := make([]string, 0, n)
		for _, i := range rng.Perm(len(ours)) {
			if len(out) == n {
				break
			}
			out = append(out, ours[i])
		}
		return out
	}
	synth := func(prefix string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%s.%d.%d.%d", prefix, rng.Intn(223), rng.Intn(256), 1+rng.Intn(254))
		}
		return out
	}
	// Scale the documented overlaps to our observed set size.
	scale := float64(len(ours)) / 12300.0
	nAB := int(math.Round(167 * scale)) // ours ∩ Ensafi
	nAC := int(math.Round(5 * scale))   // ours ∩ Dunna
	if nAC == 0 {
		nAC = 1
	}
	shared := pickFromOurs(nAB + nAC)
	ensafi := append(synth("202", int(math.Round(21721*scale))), shared[:nAB]...)
	dunnaShared := synth("218", int(math.Round(34*scale))) // Ensafi ∩ Dunna
	ensafi = append(ensafi, dunnaShared...)
	dunna := append(synth("119", int(math.Round(895*scale))), dunnaShared...)
	dunna = append(dunna, shared[nAB:]...)
	return capture.ComputeOverlap(ours, ensafi, dunna)
}

// Render prints the report in the order the paper presents its artifacts.
func (r *ShadowsocksReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Shadowsocks experiment (§3.1): %d days, %d trigger connections, %d probes\n",
		r.Config.Days, r.Triggers, r.Probes)
	fmt.Fprintf(&b, "  control host probes: %d (proactive scanning ruled out)\n\n", r.ControlProbes)

	fmt.Fprintf(&b, "Per-pair probe counts (R3/R4/R5 only reach OutlineVPN):\n")
	for _, p := range r.Pairs {
		fmt.Fprintf(&b, "  %-16s %-24s probes=%-6d R1=%d R2=%d R3=%d R4=%d R5=%d NR1=%d NR2=%d stage=%d\n",
			p.Name, p.Method, p.Probes,
			p.TypeCounts[probe.R1], p.TypeCounts[probe.R2], p.TypeCounts[probe.R3],
			p.TypeCounts[probe.R4], p.TypeCounts[probe.R5],
			p.TypeCounts[probe.NR1], p.TypeCounts[probe.NR2], p.Stage)
	}

	b.WriteString("\n")
	r.WriteFigures(&b)
	fmt.Fprintf(&b, "Figure 4: overlap — ours-only=%d ensafi-only=%d dunna-only=%d ours∩ensafi=%d ours∩dunna=%d ensafi∩dunna=%d\n",
		r.Overlap.AOnly, r.Overlap.BOnly, r.Overlap.COnly, r.Overlap.AB, r.Overlap.AC, r.Overlap.BC)
	return b.String()
}
