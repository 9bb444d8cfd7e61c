package gfw

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
	"time"

	"sslab/internal/entropy"
	"sslab/internal/netsim"
	"sslab/internal/seedfork"
	"sslab/internal/trafficgen"
)

// goldenFlows builds the first payloads of TestGoldenRecordingDecisions
// for one seed: in every twelve flows, one direct web first packet (a
// TLS ClientHello or an HTTP GET), one OpenVPN client reset (with and
// without tls-auth, alternately) and ten payloads of uniform length in
// 0–1,200 bytes and uniform target entropy in 0–8 bits per byte.
func goldenFlows(seed int64, n int) [][]byte {
	gen := entropy.NewGenerator(seedfork.Fork(seed, "gfwtest.golden"))
	tg := trafficgen.New(seedfork.Fork(seed, "gfwtest.golden.proto"))
	out := make([][]byte, n)
	for i := range out {
		switch i % 12 {
		case 0:
			out[i] = tg.AppendWebFirstPacket(nil)
		case 6:
			out[i] = tg.AppendOpenVPNClientReset(nil, i%24 == 6)
		default:
			out[i] = gen.Payload(gen.Intn(1201), 8*gen.Float64())
		}
	}
	return out
}

// goldenRun sends flows from one client to four responding servers in
// turn, five virtual seconds apart, with the censor paused for the
// middle tenth of the flows, and hashes what the censor did: the
// recording counters, every probe record, and both random streams'
// final positions (which count the recording coin's draws even where
// no draw ever records).
func goldenRun(cfg Config, flows [][]byte) []byte {
	sim := netsim.NewSim()
	net := netsim.NewNetwork(sim)
	g := New(Env{Sim: sim, Net: net}, WithConfig(cfg))
	net.AddMiddlebox(g)
	var servers [4]netsim.Endpoint
	for i := range servers {
		servers[i] = netsim.Endpoint{IP: fmt.Sprintf("178.62.0.%d", i+1), Port: 8388}
		net.AddHost(servers[i], respondingHost)
	}
	client := netsim.Endpoint{IP: "101.32.0.2", Port: 55000}
	pauseFrom, pauseTo := len(flows)*9/20, len(flows)*11/20
	for i, p := range flows {
		g.SetProbingPaused(i >= pauseFrom && i < pauseTo)
		net.Connect(client, servers[i%len(servers)], p, false, time.Time{})
		sim.RunUntil(sim.Now().Add(5 * time.Second))
	}
	sim.Run()

	h := sha256.New()
	fmt.Fprintf(h, "recorded %d probes %d stages %v\n", g.PayloadsRecorded, g.ProbesSent, g.StageRecordings())
	for _, r := range g.Log.Records {
		fmt.Fprintf(h, "%d %s:%d %s:%d %v %d %d\n", r.Time.UnixNano(), r.SrcIP, r.SrcPort,
			r.DstIP, r.DstPort, r.Type, r.ReplayOf.UnixNano(), len(r.Payload))
		h.Write(r.Payload)
	}
	rs, ps := g.rng.State(), g.Pool.rng.State()
	fmt.Fprintf(h, "rng %d %d %d pool %d\n", rs.Draws, rs.ReadVal, rs.ReadPos, ps.Draws)
	var w [8]byte
	for _, v := range rs.Register {
		binary.LittleEndian.PutUint64(w[:], uint64(v))
		h.Write(w[:])
	}
	return h.Sum(nil)
}

// TestGoldenRecordingDecisions pins which flows the censor records, and
// every draw that decision makes, in each configuration where the
// decision can branch: the default chain, all four stages (TLS veto,
// OpenVPN and fully-encrypted verdicts next to the Shadowsocks stage's),
// each Shadowsocks feature ablated, a base rate of 1 (most in-support
// coins land under the confidence), and the smallest positive base,
// whose confidence underflows to 0 except at the top weights, so it
// records nothing but still draws. Seeds 1, 7 and 23, 24,000 flows
// each. The hashes were written before the coin was drawn ahead of the
// entropy measurement; a change means a recording decision, a probe or
// a draw moved.
func TestGoldenRecordingDecisions(t *testing.T) {
	seeds := []int64{1, 7, 23}
	flows := make([][][]byte, len(seeds))
	for i, s := range seeds {
		flows[i] = goldenFlows(s, 24000)
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"default", Config{}, "d920173043a0bdb231b6fdf839fa6cf5836e7e57391df87615fc89d0b2f78751"},
		{"four stages", Config{Detectors: []string{"tlsexempt", "shadowsocks", "openvpn", "fullyencrypted"}}, "7c2d251758e94bc3158a7ff47f01465acfd6d2dd192d2f6d77f9a1442f496312"},
		{"entropy feature off", Config{DisableEntropyFeature: true}, "2d67a3d971c5954ceb9febe5235bb25184abf81d8da564eab668f8ae1a71345a"},
		{"length feature off", Config{DisableLengthFeature: true}, "840d479d8815c9eb9d57b4377f6f268b6e2a78010f3b1fd114a247e436929b9f"},
		{"base 1", Config{ReplayBase: 1}, "a3ea2f29d0bf6fcfcfb1d456112f37be8b544b9d4f2bbbc7a83f8223edea53cf"},
		{"smallest base", Config{ReplayBase: math.SmallestNonzeroFloat64}, "f795cd13bce7cd685dcef7c984d0aa537e99c507e41e3bfe8cb1901f02eb9257"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := sha256.New()
			for i, s := range seeds {
				cfg := tc.cfg
				cfg.Seed = s
				h.Write(goldenRun(cfg, flows[i]))
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("recording SHA-256 = %s, want %s", got, tc.want)
			}
		})
	}
}
