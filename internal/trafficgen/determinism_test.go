package trafficgen

import (
	"bytes"
	"testing"

	"sslab/internal/sscrypto"
)

// TestBitIdenticalGeneration: same seed, same byte stream — the client
// workload half of the determinism invariant (the GFW half is covered
// in internal/gfw).
func TestBitIdenticalGeneration(t *testing.T) {
	spec, err := sscrypto.Lookup("aes-256-cfb")
	if err != nil {
		t.Fatal(err)
	}
	workloads := []Workload{CurlHTTP, CurlHTTPS, BrowseAlexa, CurlLoop}
	a, b := New(7), New(7)
	for i := 0; i < 2000; i++ {
		w := workloads[i%len(workloads)]
		pa, pb := a.FirstWirePacket(spec, w), b.FirstWirePacket(spec, w)
		if !bytes.Equal(pa, pb) {
			t.Fatalf("iteration %d (workload %d): wire packets diverged", i, w)
		}
	}
}

func TestSeedChangesGeneration(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if bytes.Equal(a.PlaintextFirstFlight(BrowseAlexa), b.PlaintextFirstFlight(BrowseAlexa)) {
			same++
		}
	}
	if same == 100 {
		t.Fatal("different seeds produced identical flights; seed not threaded through")
	}
}

// TestRestoreRNG: a generator restored to a captured position — here
// one that leaves part of a draw in Read's carry — continues exactly as
// the original does, and a carry no Read leaves behind is an error
// instead of a stream that resumes with stale bytes.
func TestRestoreRNG(t *testing.T) {
	spec, err := sscrypto.Lookup("chacha20-ietf-poly1305")
	if err != nil {
		t.Fatal(err)
	}
	a := New(11)
	for i := 0; i < 40; i++ {
		a.AppendProtocolFirstPacket(nil, spec, OpenVPNTCP) // 8 random bytes: a carry is left
	}
	st := a.CaptureRNG()
	if st.ReadPos == 0 {
		t.Fatal("fixture left no Read carry")
	}
	b := New(11)
	if err := b.RestoreRNG(st); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if pa, pb := a.FirstWirePacket(spec, BrowseAlexa), b.FirstWirePacket(spec, BrowseAlexa); !bytes.Equal(pa, pb) {
			t.Fatalf("flow %d after restore diverged", i)
		}
	}
	for _, pos := range []int8{-1, 7} {
		bad := st
		bad.ReadPos = pos
		if err := New(11).RestoreRNG(bad); err == nil {
			t.Errorf("RestoreRNG accepted ReadPos %d", pos)
		}
	}
}
