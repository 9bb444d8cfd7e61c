package probesim

import (
	"strings"
	"testing"
	"time"

	"sslab/internal/netsim"
	"sslab/internal/reaction"
	"sslab/internal/sscrypto"
	"sslab/internal/ssserver"
)

// TestScanRandomOutline106 regenerates the OutlineVPN v1.0.6 row of
// Figure 10b through the simulator API.
func TestScanRandomOutline106(t *testing.T) {
	spec, _ := sscrypto.Lookup("chacha20-ietf-poly1305")
	m, err := ScanRandom(reaction.Outline106, spec, "pw", RandomProbeLengths(), 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Cells[49].Dominant() != reaction.Timeout {
		t.Error("len 49 should time out")
	}
	if m.Cells[50].Dominant() != reaction.FINACK {
		t.Error("len 50 should FIN/ACK")
	}
	if m.Cells[51].Dominant() != reaction.RST || m.Cells[221].Dominant() != reaction.RST {
		t.Error("len > 50 should RST")
	}
	out := m.Render()
	if !strings.Contains(out, "FIN/ACK") || !strings.Contains(out, "RST") {
		t.Errorf("render missing bands:\n%s", out)
	}
}

// TestScanRandomStreamBands checks the old-libev stream row via the
// simulator, including the probabilistic 15+ band.
func TestScanRandomStreamBands(t *testing.T) {
	spec, _ := sscrypto.Lookup("chacha20") // 8-byte IV
	m, err := ScanRandom(reaction.LibevOld, spec, "pw", RandomProbeLengths(), 300, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.Cells[8].Dominant() != reaction.Timeout {
		t.Error("len 8 (= IV) should time out")
	}
	if m.Cells[9].Dominant() != reaction.RST {
		t.Error("len 9 should RST")
	}
	c := m.Cells[50]
	if f := c.Fraction(reaction.RST); f < 13.0/16*0.95 {
		t.Errorf("len 50 RST fraction %.3f, want above 13/16", f)
	}
	if c.Fraction(reaction.Timeout)+c.Fraction(reaction.FINACK) == 0 {
		t.Error("len 50 lacks the TIMEOUT/FIN-ACK tail")
	}
}

// TestScanReplayTable5 regenerates Table 5's rows.
func TestScanReplayTable5(t *testing.T) {
	aead, _ := sscrypto.Lookup("aes-256-gcm")
	stream, _ := sscrypto.Lookup("aes-256-ctr")
	ccp, _ := sscrypto.Lookup("chacha20-ietf-poly1305")
	const target = "93.184.216.34:443"

	for _, tc := range []struct {
		profile   reaction.Profile
		spec      sscrypto.Spec
		identical reaction.Reaction
	}{
		{reaction.LibevOld, stream, reaction.RST},
		{reaction.LibevOld, aead, reaction.RST},
		{reaction.LibevNew, stream, reaction.Timeout},
		{reaction.LibevNew, aead, reaction.Timeout},
		{reaction.Outline107, ccp, reaction.Data},
	} {
		r, err := ScanReplay(tc.profile, tc.spec, "pw", 50, 3, target)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.Identical.Dominant(); got != tc.identical {
			t.Errorf("%s %s %v: identical replay %v, want %v",
				tc.profile.Name, tc.profile.Versions, tc.spec.Kind, got, tc.identical)
		}
		if tc.profile == reaction.Outline107 {
			if got := r.ByteChanged.Dominant(); got != reaction.Timeout {
				t.Errorf("outline byte-changed %v, want TIMEOUT", got)
			}
		}
		if r.Identical.Fraction(reaction.Data) > 0 && tc.profile.ReplayDefense {
			t.Errorf("%s: replay-defended server served data", tc.profile.Versions)
		}
		if out := r.Render(); !strings.Contains(out, "identical=") {
			t.Errorf("render malformed: %s", out)
		}
	}
}

// TestTCPProberAgainstLiveServer cross-validates the TCP prober against a
// live ssserver: the live reactions must match the model's Figure 10b row.
func TestTCPProberAgainstLiveServer(t *testing.T) {
	srv, err := ssserver.Listen("127.0.0.1:0", ssserver.Config{
		Method: "chacha20-ietf-poly1305", Password: "pw",
		Profile: reaction.Outline106, Timeouts: netsim.Timeouts{Handshake: 10 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	p := &TCPProber{Addr: srv.Addr().String(), Timeout: 700 * time.Millisecond}
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i * 37)
	}
	if r, err := p.Probe(payload[:49], time.Time{}); err != nil || r != reaction.Timeout {
		t.Errorf("49B live probe: %v %v, want TIMEOUT", r, err)
	}
	if r, err := p.Probe(payload[:50], time.Time{}); err != nil || r == reaction.Timeout {
		t.Errorf("50B live probe: %v %v, want immediate close", r, err)
	}
	if r, err := p.Probe(payload[:221], time.Time{}); err != nil || r == reaction.Timeout {
		t.Errorf("221B live probe: %v %v, want immediate close", r, err)
	}
}

func TestParseLengths(t *testing.T) {
	got, err := ParseLengths("1-3,10, 221")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3, 10, 221}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	for _, bad := range []string{"", "x", "5-2", "-1", "3-", "1,,2x"} {
		if _, err := ParseLengths(bad); err == nil {
			t.Errorf("ParseLengths(%q) accepted", bad)
		}
	}
}
