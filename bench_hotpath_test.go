// BenchmarkHotPath measures the steady-state per-flow pipeline the
// ROADMAP's "as fast as the hardware allows" goal is gated on: the
// fleet's first-packet generation, the netsim event loop, the GFW's
// passive OnFlow+detector path, the ssproto stream/AEAD framing, and
// the sscrypto Seal/Open primitives.
//
// Every sub-benchmark reports allocs/op. The budgets live in
// BENCH_hotpath.json and are enforced by TestHotPathAllocBudgets and
// the bench-smoke CI job: first packets, steady-state streamConn
// writes and netsim event dispatch must stay at 0 allocs/op.
package sslab_test

import (
	"fmt"
	"math/rand"
	"net"
	"testing"
	"time"

	"sslab/internal/detector"
	"sslab/internal/entropy"
	"sslab/internal/gfw"
	"sslab/internal/netsim"
	"sslab/internal/reaction"
	"sslab/internal/sscrypto"
	"sslab/internal/ssproto"
	"sslab/internal/trafficgen"
)

func BenchmarkHotPath(b *testing.B) {
	b.Run("FirstWirePacket", benchFirstWirePacket)
	b.Run("GFWOnFlow", benchGFWOnFlow)
	b.Run("GFWOnFlow3Stage", benchGFWOnFlow3Stage)
	b.Run("GFWFlowBatch", benchGFWFlowBatch)
	b.Run("DetectorChainSS", benchDetectorChainSS)
	b.Run("DetectorChain3", benchDetectorChain3)
	b.Run("ImpairedConnect", benchImpairedConnect)
	b.Run("ImpairedNewLink", benchImpairedNewLink)
	b.Run("EventDispatch", benchEventDispatch)
	b.Run("StreamConnWrite", benchStreamConnWrite)
	b.Run("AEADConnWrite", benchAEADConnWrite)
	b.Run("AEADSeal", benchAEADSeal)
	b.Run("AEADOpen", benchAEADOpen)
}

// benchFirstWirePacket generates first packets the way a fleet-ss user
// wake does: AppendProtocolFirstPacket into one reused buffer, over the
// default fleet mix's ciphers with the CurlLoop and BrowseAlexa
// workloads, plus direct web flows, whose packets carry real bytes.
// Budget: 0 allocs/op.
func benchFirstWirePacket(b *testing.B) {
	type flow struct {
		spec sscrypto.Spec
		wl   trafficgen.Workload
	}
	var flows []flow
	for _, m := range []string{"aes-256-cfb", "aes-256-gcm", "chacha20-ietf-poly1305", "aes-256-ctr"} {
		spec, err := sscrypto.Lookup(m)
		if err != nil {
			b.Fatal(err)
		}
		flows = append(flows, flow{spec, trafficgen.CurlLoop}, flow{spec, trafficgen.BrowseAlexa})
	}
	flows = append(flows, flow{wl: trafficgen.WebDirect})
	g := trafficgen.New(7)
	buf := make([]byte, 0, 1024) // above the longest packet, 674 bytes
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := &flows[i%len(flows)]
		buf = g.AppendProtocolFirstPacket(buf[:0], f.spec, f.wl)
	}
}

// benchGFWOnFlow drives the full passive path — Connect → middlebox
// OnFlow → detector → (sometimes) recording + probe scheduling — with a
// realistic first-packet mix: mostly Shadowsocks-like high-entropy
// payloads in the detector's 160–999 support, plus short ACK-ish and
// long out-of-support flows. Probe events are drained as virtual time
// advances, so the event loop and prober pool are part of the cost.
func benchGFWOnFlow(b *testing.B) {
	benchGFWOnFlowChain(b, nil)
}

// benchGFWOnFlow3Stage is the same pipeline with the three-stage passive
// chain (shadowsocks + openvpn + fullyencrypted). The acceptance bound:
// within 2× of the single-stage GFWOnFlow ns/op at the same 0 allocs/op.
func benchGFWOnFlow3Stage(b *testing.B) {
	benchGFWOnFlowChain(b, []string{"shadowsocks", "openvpn", "fullyencrypted"})
}

func benchGFWOnFlowChain(b *testing.B, detectors []string) {
	sim := netsim.NewSim()
	network := netsim.NewNetwork(sim)
	censor := gfw.New(gfw.Env{Sim: sim, Net: network},
		gfw.WithConfig(gfw.Config{Seed: 7, PoolSize: 4000, Detectors: detectors}))
	network.AddMiddlebox(censor)

	server := netsim.Endpoint{IP: "178.62.10.1", Port: 8388}
	client := netsim.Endpoint{IP: "150.109.20.2", Port: 40001}
	seen := map[string]bool{}
	network.AddHost(server, netsim.HostFunc(func(f *netsim.Flow) netsim.Outcome {
		if !f.Probe {
			// Lookup before insert: the payload set is small and a map
			// lookup keyed on string(bytes) does not allocate, so the
			// host stays out of the benchmark's allocation profile.
			if !seen[string(f.FirstPayload)] {
				seen[string(f.FirstPayload)] = true
			}
			return netsim.Outcome{Reaction: reaction.Timeout}
		}
		if seen[string(f.FirstPayload)] {
			return netsim.Outcome{Reaction: reaction.Data, ResponseLen: 600}
		}
		return netsim.Outcome{Reaction: reaction.RST}
	}))

	payloads := benchPayloadMix()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		network.Connect(client, server, payloads[i%len(payloads)], false, time.Time{})
		if i%4096 == 4095 {
			// Advance virtual time so scheduled probes fire and the
			// event heap stays bounded.
			sim.RunUntil(sim.Now().Add(time.Hour))
		}
	}
	sim.Run()
	b.ReportMetric(float64(censor.ProbesSent)/float64(b.N), "probes/flow")
}

// benchGFWFlowBatch drives the same full passive pipeline through
// 512-spec ConnectBatch calls, probes drained between batches. Budget
// 0 allocs/op (recordings and probes amortize to a rounding-error
// fraction).
func benchGFWFlowBatch(b *testing.B) {
	sim := netsim.NewSim()
	network := netsim.NewNetwork(sim)
	censor := gfw.New(gfw.Env{Sim: sim, Net: network},
		gfw.WithConfig(gfw.Config{Seed: 7, PoolSize: 4000}))
	network.AddMiddlebox(censor)

	server := netsim.Endpoint{IP: "178.62.10.1", Port: 8388}
	client := netsim.Endpoint{IP: "150.109.20.2", Port: 40001}
	seen := map[string]bool{}
	network.AddHost(server, netsim.HostFunc(func(f *netsim.Flow) netsim.Outcome {
		if !f.Probe {
			if !seen[string(f.FirstPayload)] {
				seen[string(f.FirstPayload)] = true
			}
			return netsim.Outcome{Reaction: reaction.Timeout}
		}
		if seen[string(f.FirstPayload)] {
			return netsim.Outcome{Reaction: reaction.Data, ResponseLen: 600}
		}
		return netsim.Outcome{Reaction: reaction.RST}
	}))

	payloads := benchPayloadMix()
	const batch = 512
	specs := make([]netsim.FlowSpec, batch)
	outs := make([]netsim.Outcome, 0, batch)
	idx := 0
	fill := func() {
		for i := range specs {
			specs[i] = netsim.FlowSpec{Client: client, Server: server, FirstPayload: payloads[idx%len(payloads)]}
			idx++
		}
	}
	// Warm the outcome buffer so the timer sees steady state.
	for w := 0; w < 2; w++ {
		fill()
		outs = network.ConnectBatch(specs, outs[:0])
		sim.RunUntil(sim.Now().Add(time.Hour))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		fill()
		outs = network.ConnectBatch(specs, outs[:0])
		sim.RunUntil(sim.Now().Add(time.Hour))
	}
	sim.Run()
	b.ReportMetric(float64(censor.ProbesSent)/float64(b.N), "probes/flow")
}

// benchPayloadMix builds the first-packet mix the GFW benches drive: 70%
// Shadowsocks-shaped (high entropy, lengths in the detector support),
// 15% short low-entropy, 15% long out-of-support — roughly the border
// mix the FPStudy models.
func benchPayloadMix() [][]byte {
	gen := entropy.NewGenerator(11)
	lenRng := rand.New(rand.NewSource(13))
	payloads := make([][]byte, 1024)
	for i := range payloads {
		switch {
		case i%20 < 14:
			payloads[i] = gen.Random(160 + lenRng.Intn(840))
		case i%20 < 17:
			payloads[i] = gen.Payload(20+lenRng.Intn(100), 3.0)
		default:
			payloads[i] = gen.Random(1000 + lenRng.Intn(500))
		}
	}
	return payloads
}

// benchDetectorChainSS isolates the detector chain itself — no network,
// no prober — with the classic single-stage chain over the same payload
// mix. Budget: 0 allocs/op.
func benchDetectorChainSS(b *testing.B) {
	benchDetectorChain(b, []string{"shadowsocks"})
}

// benchDetectorChain3 is the three-stage chain (shadowsocks + openvpn +
// fullyencrypted) over the same mix. Budget: 0 allocs/op.
func benchDetectorChain3(b *testing.B) {
	benchDetectorChain(b, []string{"shadowsocks", "openvpn", "fullyencrypted"})
}

func benchDetectorChain(b *testing.B, names []string) {
	chain, err := detector.NewChain(names, detector.Params{Base: 0.04})
	if err != nil {
		b.Fatal(err)
	}
	payloads := benchPayloadMix()
	f := &netsim.Flow{}
	suspects := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.FirstPayload = payloads[i%len(payloads)]
		if _, res := chain.Observe(f); res.Verdict == detector.Suspect {
			suspects++
		}
	}
	if b.N > 1024 && suspects == 0 {
		b.Fatal("chain never flagged the Shadowsocks-shaped mix")
	}
}

// benchImpairedConnect drives Connect down the impaired path: every
// directed link carries latency, jitter and i.i.d. loss with retries.
// Arrival times are computed, not scheduled, so the budget in
// BENCH_impair.json holds this path to the same standard as the ideal
// one: no per-flow allocations.
func benchImpairedConnect(b *testing.B) {
	sim := netsim.NewSim(netsim.WithSeed(5))
	network := netsim.NewNetwork(sim, netsim.WithDefaultLink(netsim.LinkProfile{
		LatencyBase: 30 * time.Millisecond,
		Jitter:      10 * time.Millisecond,
		Loss:        0.01,
	}))
	server := netsim.Endpoint{IP: "178.62.10.1", Port: 8388}
	client := netsim.Endpoint{IP: "150.109.20.2", Port: 40001}
	network.AddHost(server, netsim.HostFunc(func(f *netsim.Flow) netsim.Outcome {
		return netsim.Outcome{Reaction: reaction.Data, ResponseLen: 600}
	}))
	payload := entropy.NewGenerator(3).Random(400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		network.Connect(client, server, payload, false, time.Time{})
	}
}

// benchImpairedNewLink connects from a client address the network has
// not seen, on the lossy fleet workload's link profile, so every op
// creates both directed links — the common case for a probe, whose
// prober address rarely repeats. The budget in BENCH_impair.json is one
// linkState per direction: each link's stream lives in its state and
// seeds lazily. The network is rebuilt outside the timer every
// perNet ops, which bounds the link map.
func benchImpairedNewLink(b *testing.B) {
	const perNet = 4096
	clients := make([]netsim.Endpoint, perNet)
	for i := range clients {
		clients[i] = netsim.Endpoint{IP: fmt.Sprintf("100.64.%d.%d", i/250, i%250+1), Port: 40000}
	}
	server := netsim.Endpoint{IP: "198.51.0.1", Port: 8388}
	host := netsim.HostFunc(func(*netsim.Flow) netsim.Outcome {
		return netsim.Outcome{Reaction: reaction.Data, ResponseLen: 1200}
	})
	payload := entropy.NewGenerator(3).Random(400)
	var network *netsim.Network
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%perNet == 0 {
			b.StopTimer()
			sim := netsim.NewSim(netsim.WithSeed(int64(i / perNet)))
			network = netsim.NewNetwork(sim, netsim.WithDefaultLink(netsim.LinkProfile{
				LatencyBase: 80 * time.Millisecond,
				Jitter:      40 * time.Millisecond,
				Loss:        0.01,
			}))
			network.AddHost(server, host)
			b.StartTimer()
		}
		network.Connect(clients[i%perNet], server, payload, false, time.Time{})
	}
}

// benchEventDispatch measures the scheduler alone: schedule + dispatch
// of the common After case with a pre-bound callback, in batches, the
// way the GFW schedules probe batches.
func benchEventDispatch(b *testing.B) {
	sim := netsim.NewSim()
	dispatched := 0
	fn := func() { dispatched++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.After(time.Duration(i%512)*time.Microsecond, fn)
		if i%512 == 511 {
			sim.Run()
		}
	}
	sim.Run()
	if dispatched != b.N {
		b.Fatalf("dispatched %d of %d events", dispatched, b.N)
	}
}

// discardConn is a net.Conn whose writes vanish without allocating.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }
func (discardConn) Read(p []byte) (int, error)  { return 0, nil }
func (discardConn) SetDeadline(time.Time) error { return nil }
func (discardConn) Close() error                { return nil }
func (discardConn) LocalAddr() net.Addr         { return nil }
func (discardConn) RemoteAddr() net.Addr        { return nil }

// benchStreamConnWrite: steady-state relay writes through the stream
// construction (the IV flight is done before the timer starts).
func benchStreamConnWrite(b *testing.B) {
	spec, err := sscrypto.Lookup("aes-256-ctr")
	if err != nil {
		b.Fatal(err)
	}
	key := spec.Key("bench-pw")
	conn := ssproto.NewConnWithRand(discardConn{}, spec, key, rand.New(rand.NewSource(1)))
	buf := make([]byte, 1400)
	if _, err := conn.Write(buf); err != nil { // first write: IV path
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Write(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// benchAEADConnWrite: steady-state relay writes through the AEAD
// construction (salt flight done before the timer starts).
func benchAEADConnWrite(b *testing.B) {
	spec, err := sscrypto.Lookup("chacha20-ietf-poly1305")
	if err != nil {
		b.Fatal(err)
	}
	key := spec.Key("bench-pw")
	conn := ssproto.NewConnWithRand(discardConn{}, spec, key, rand.New(rand.NewSource(1)))
	buf := make([]byte, 1400)
	if _, err := conn.Write(buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Write(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// benchAEADSeal: the sscrypto chacha20-ietf-poly1305 Seal primitive
// with a reused destination buffer — the per-chunk cost of every AEAD
// relay direction.
func benchAEADSeal(b *testing.B) {
	spec, _ := sscrypto.Lookup("chacha20-ietf-poly1305")
	key := spec.Key("bench-pw")
	aead, err := spec.NewAEAD(sscrypto.SessionSubkey(key, make([]byte, spec.SaltSize())))
	if err != nil {
		b.Fatal(err)
	}
	nonce := make([]byte, aead.NonceSize())
	msg := make([]byte, 1400)
	dst := make([]byte, 0, len(msg)+aead.Overhead())
	b.SetBytes(int64(len(msg)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = aead.Seal(dst[:0], nonce, msg, nil)
	}
}

// benchAEADOpen: the matching Open with a reused destination buffer.
func benchAEADOpen(b *testing.B) {
	spec, _ := sscrypto.Lookup("chacha20-ietf-poly1305")
	key := spec.Key("bench-pw")
	aead, err := spec.NewAEAD(sscrypto.SessionSubkey(key, make([]byte, spec.SaltSize())))
	if err != nil {
		b.Fatal(err)
	}
	nonce := make([]byte, aead.NonceSize())
	msg := make([]byte, 1400)
	ct := aead.Seal(nil, nonce, msg, nil)
	dst := make([]byte, 0, len(msg))
	b.SetBytes(int64(len(msg)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = aead.Open(dst[:0], nonce, ct, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
}
