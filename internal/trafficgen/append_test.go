package trafficgen

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"sslab/internal/seedfork"
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
