package trafficgen

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"sslab/internal/seedfork"
	"sslab/internal/socks"
	"sslab/internal/sscrypto"
)

// sameState reports whether two stream states are equal, register
// included.
func sameState(a, b seedfork.State) bool {
	return a.Draws == b.Draws && a.ReadVal == b.ReadVal && a.ReadPos == b.ReadPos && slices.Equal(a.Register, b.Register)
}

// TestAppendMatchesAllocForm pins the contract the fleet's golden
// cross-check rests on: the length-only append form draws exactly what
// the reference forms draw and writes the same wire bytes, so two
// generators with equal seeds stay bit-identical, stream position and
// Read carry included, no matter which form each uses per call. It
// covers 20 seeds × 5,000 flows of every Shadowsocks workload under
// stream and AEAD specs, and a generator restored mid-stream with part
// of a draw left in Read's carry.
func TestAppendMatchesAllocForm(t *testing.T) {
	var specs []sscrypto.Spec
	for _, m := range []string{"aes-256-cfb", "aes-256-ctr", "aes-256-gcm", "chacha20-ietf-poly1305"} {
		spec, err := sscrypto.Lookup(m)
		if err != nil {
			t.Fatalf("lookup %s: %v", m, err)
		}
		specs = append(specs, spec)
	}
	workloads := []Workload{CurlHTTP, CurlHTTPS, BrowseAlexa, CurlLoop}

	var buf []byte
	compare := func(name string, ref, fast *Generator, flows int) {
		t.Helper()
		for i := 0; i < flows; i++ {
			w, spec := workloads[i%len(workloads)], specs[i/len(workloads)%len(specs)]
			want := ref.WireFirstPacket(spec, ref.PlaintextFirstFlight(w))
			buf = fast.AppendFirstWirePacket(buf[:0], spec, w)
			if !bytes.Equal(want, buf) {
				t.Fatalf("%s, flow %d (%v, %s): wire bytes diverged: reference %d bytes, length-only %d",
					name, i, w, spec.Name, len(want), len(buf))
			}
			if a, b := ref.CaptureRNG(), fast.CaptureRNG(); !sameState(a, b) {
				t.Fatalf("%s, flow %d (%v, %s): stream position %+v, length-only %+v", name, i, w, spec.Name, a, b)
			}
		}
	}
	for seed := int64(0); seed < 20; seed++ {
		compare(fmt.Sprintf("seed %d", seed), New(seed), New(seed), 5000)
	}

	src := New(31)
	for i := 0; i < 300; i++ {
		src.FirstWirePacket(specs[i%len(specs)], workloads[i%len(workloads)])
	}
	st := src.CaptureRNG()
	for ; st.ReadPos == 0; st = src.CaptureRNG() {
		src.AppendOpenVPNClientReset(nil, false) // 8 random bytes
	}
	ref, fast := New(31), New(31)
	if err := ref.RestoreRNG(st); err != nil {
		t.Fatal(err)
	}
	if err := fast.RestoreRNG(st); err != nil {
		t.Fatal(err)
	}
	compare("restored with a carry", ref, fast, 2000)
}

// TestAppendExtends verifies the append forms honor existing dst
// contents and only append.
func TestAppendExtends(t *testing.T) {
	g := New(3)
	spec, err := sscrypto.Lookup("aes-256-gcm")
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("prefix")
	for _, c := range []struct {
		name string
		out  []byte
	}{
		{"AppendFirstWirePacket", g.AppendFirstWirePacket(bytes.Clone(prefix), spec, CurlLoop)},
		{"AppendWebFirstPacket", g.AppendWebFirstPacket(bytes.Clone(prefix))},
	} {
		if !bytes.HasPrefix(c.out, prefix) {
			t.Errorf("%s clobbered dst prefix", c.name)
		}
		if len(c.out) <= len(prefix) {
			t.Errorf("%s appended nothing", c.name)
		}
	}
}

// refFlight is the first flight of workload w drawn from math/rand the
// way the generator once drew it, every ClientHello structural byte
// with its own Intn: PlaintextFirstFlight's bytes for a Shadowsocks
// workload, AppendWebFirstPacket's for WebDirect.
func refFlight(r *rand.Rand, w Workload) []byte {
	var t target
	switch w {
	case CurlHTTP:
		t = target{sites[r.Intn(len(sites))], 80}
	case CurlLoop, WebDirect:
		t = curlSites[r.Intn(len(curlSites))]
	default:
		t = target{sites[r.Intn(len(sites))], 443}
	}
	var out []byte
	if w != WebDirect {
		out = socks.Addr{Type: socks.AtypDomain, Host: t.host, Port: t.port}.Append(nil)
	}
	if t.port == 80 {
		out = append(out, getMethod...)
		out = append(out, getPaths[r.Intn(len(getPaths))]...)
		out = append(out, getHost...)
		out = append(out, t.host...)
		out = append(out, getAgent...)
		out = strconv.AppendInt(out, int64(50+r.Intn(curlMinors)), 10)
		return append(out, getEnd...)
	}
	body := helloMinBody + r.Intn(helloMaxBody-helloMinBody+1)
	hello := []byte{0x16, 0x03, 0x01, byte(body >> 8), byte(body)}
	b := make([]byte, body)
	nRand := body / 3
	r.Read(b[:nRand])
	for i := nRand; i < body; i++ {
		b[i] = helloStructural[r.Intn(len(helloStructural))]
	}
	copy(b[nRand+4:], t.host)
	return append(append(out, hello...), b...)
}

// TestFlightsMatchMathRand: over 5,000 flows for each of 8 seeds, the
// generator's PlaintextFirstFlight for the four Shadowsocks workloads,
// followed by each flight's wire bytes, and its AppendWebFirstPacket
// equal what a math/rand stream of the same seed draws for them with
// one Intn per ClientHello structural byte.
func TestFlightsMatchMathRand(t *testing.T) {
	var specs []sscrypto.Spec
	for _, m := range []string{"aes-256-cfb", "chacha20-ietf-poly1305"} {
		spec, err := sscrypto.Lookup(m)
		if err != nil {
			t.Fatalf("lookup %s: %v", m, err)
		}
		specs = append(specs, spec)
	}
	workloads := []Workload{CurlHTTP, CurlHTTPS, BrowseAlexa, CurlLoop, WebDirect}
	for seed := int64(0); seed < 8; seed++ {
		g, ref := New(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < 5000; i++ {
			w := workloads[i%len(workloads)]
			var got []byte
			if w == WebDirect {
				got = g.AppendWebFirstPacket(nil)
			} else {
				got = g.PlaintextFirstFlight(w)
			}
			if want := refFlight(ref, w); !bytes.Equal(got, want) {
				t.Fatalf("seed %d, flow %d (%v): flight %x, math/rand %x", seed, i, w, got, want)
			}
			if w == WebDirect {
				continue
			}
			wire := g.WireFirstPacket(specs[i/len(workloads)%len(specs)], got)
			want := make([]byte, len(wire))
			ref.Read(want)
			if !bytes.Equal(wire, want) {
				t.Fatalf("seed %d, flow %d (%v): wire bytes %x, math/rand %x", seed, i, w, wire, want)
			}
		}
	}
}
