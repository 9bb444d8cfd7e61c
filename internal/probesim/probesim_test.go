package probesim

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"sslab/internal/reaction"
	"sslab/internal/socks"
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

// refuseDialer fails every model dial fast, like the live servers'
// refusing Config.Dial in TestTCPProberAgainstLiveServer.
type refuseDialer struct{}

func (refuseDialer) Dial(socks.Addr) reaction.DialOutcome { return reaction.DialRefused }

// TestTCPProberAgainstLiveServer cross-validates live ssserver reactions,
// as the TCP prober observes them, against the reaction model: every
// stream-cipher and AEAD profile, at the lengths around each threshold.
//
// One difference is expected. Where the model answers RST but the live
// server has read the whole probe before it closes, the kernel sends a
// FIN/ACK instead: for every stream-cipher probe longer than the IV (the
// first data event takes in the rest of the probe), and for an AEAD probe
// of exactly salt+35 bytes under WaitPayloadTag.
func TestTCPProberAgainstLiveServer(t *testing.T) {
	refuse := func(string, string) (net.Conn, error) { return nil, errors.New("refused") }
	type liveProbe struct {
		server  string
		prober  *TCPProber
		payload []byte
		want    reaction.Reaction
	}
	var probes []liveProbe
	rng := rand.New(rand.NewSource(1))
	now := time.Now()
	for _, tc := range []struct {
		profile reaction.Profile
		method  string
	}{
		{reaction.LibevOld, "aes-256-ctr"},
		{reaction.LibevNew, "chacha20-ietf"},
		{reaction.SSPython, "chacha20"},
		{reaction.SSR, "aes-128-cfb"},
		{reaction.LibevOld, "aes-128-gcm"},
		{reaction.LibevNew, "aes-192-gcm"},
		{reaction.Outline106, "chacha20-ietf-poly1305"},
		{reaction.Outline107, "aes-256-gcm"},
		{reaction.Hardened, "chacha20-ietf-poly1305"},
	} {
		spec, err := sscrypto.Lookup(tc.method)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := ssserver.Listen("127.0.0.1:0", ssserver.Config{
			Method: tc.method, Password: "pw", Profile: tc.profile, Dial: refuse,
			HandshakeTimeout: 10 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		model, err := reaction.NewServer(tc.profile, spec, "pw")
		if err != nil {
			t.Fatal(err)
		}
		model.Dialer = refuseDialer{}
		prober := &TCPProber{Addr: srv.Addr().String(), Timeout: time.Second}
		name := fmt.Sprintf("%s %s %s", tc.profile.Name, tc.profile.Versions, tc.method)

		n := spec.IVSize
		for _, l := range []int{n, n + 1, n + 3, n + 17, n + 18, n + 19, n + 34, n + 35, n + 36, 221} {
			for k := 0; k < 2; k++ {
				payload := make([]byte, l)
				rng.Read(payload)
				payload[0] = byte(len(probes)) // distinct IVs: no probe is a replay
				want := model.React(payload, now).Reaction
				readWhole := l > n && spec.Kind == sscrypto.Stream ||
					l == n+35 && spec.Kind == sscrypto.AEAD && tc.profile.WaitPayloadTag
				if want == reaction.RST && readWhole {
					want = reaction.FINACK
				}
				probes = append(probes, liveProbe{name, prober, payload, want})
			}
		}
	}

	var wg sync.WaitGroup
	for _, p := range probes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got, err := p.prober.Probe(p.payload, time.Time{}); err != nil || got != p.want {
				t.Errorf("%s, %d-byte probe: live %v (err %v), want %v", p.server, len(p.payload), got, err, p.want)
			}
		}()
	}
	wg.Wait()
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
