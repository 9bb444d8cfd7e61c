package trafficgen

import (
	"net"
	"strings"
	"testing"

	"sslab/internal/entropy"
	"sslab/internal/socks"
	"sslab/internal/ssclient"
	"sslab/internal/sscrypto"
)

// TestTargetsWellFormed: every target a workload picks is a hostname a
// SOCKS domain spec can carry, on port 80 for CurlHTTP and on 80 or 443
// otherwise.
func TestTargetsWellFormed(t *testing.T) {
	g := New(1)
	for i := 0; i < 100; i++ {
		for _, w := range []Workload{CurlHTTP, CurlHTTPS, BrowseAlexa, CurlLoop} {
			tg := g.pick(w)
			addr := socks.Addr{Type: socks.AtypDomain, Host: tg.host, Port: tg.port}
			if got, err := socks.ParseAddr(addr.String()); err != nil || got.Type != socks.AtypDomain || got.Host != tg.host {
				t.Fatalf("bad target %v: parses as %+v, %v", addr, got, err)
			}
			if (w == CurlHTTP && tg.port != 80) || (tg.port != 80 && tg.port != 443) {
				t.Errorf("%v target %v on an unexpected port", w, addr)
			}
		}
	}
}

func TestPlaintextFirstFlightParses(t *testing.T) {
	g := New(2)
	for i := 0; i < 200; i++ {
		p := g.PlaintextFirstFlight(CurlHTTP)
		addr, n, err := socks.Decode(p, false)
		if err != nil {
			t.Fatalf("first flight does not start with a target spec: %v", err)
		}
		rest := string(p[n:])
		if !strings.HasPrefix(rest, "GET ") || !strings.Contains(rest, "\r\n\r\n") {
			t.Fatalf("HTTP flight malformed: %q", rest[:40])
		}
		if addr.Port != 80 {
			t.Errorf("HTTP flight port %d", addr.Port)
		}
	}
}

func TestClientHelloShape(t *testing.T) {
	g := New(3)
	for i := 0; i < 200; i++ {
		p := g.PlaintextFirstFlight(CurlHTTPS)
		_, n, err := socks.Decode(p, false)
		if err != nil {
			t.Fatal(err)
		}
		hello := p[n:]
		if hello[0] != 0x16 {
			t.Fatal("not a handshake record")
		}
		body := int(hello[3])<<8 | int(hello[4])
		if len(hello) != 5+body {
			t.Fatalf("record length field %d vs actual %d", body, len(hello)-5)
		}
		if body < 220 || body >= 580 {
			t.Errorf("hello body %d outside browser-like range", body)
		}
	}
}

// recordingConn is a client transport that records the length of each
// Write and sends nothing.
type recordingConn struct {
	net.Conn // nil: the client only writes
	writes   []int
}

func (r *recordingConn) Write(p []byte) (int, error) {
	r.writes = append(r.writes, len(p))
	return len(p), nil
}

// TestWireFirstPacketLengths pins the wire overhead per construction —
// the lengths that make the detector's mod-16 remainders meaningful —
// and checks it against the real client: for every registered method
// and the four Shadowsocks workloads, the first Write ssclient puts on
// its transport, carrying a PlaintextFirstFlight's target and payload,
// is wireLen bytes long, as WireFirstPacket's packet is.
func TestWireFirstPacketLengths(t *testing.T) {
	g := New(4)
	plain := make([]byte, 100)
	stream, _ := sscrypto.Lookup("aes-256-ctr")
	if got := len(g.WireFirstPacket(stream, plain)); got != 16+100 {
		t.Errorf("stream wire length %d, want 116", got)
	}
	aead, _ := sscrypto.Lookup("chacha20-ietf-poly1305")
	if got := len(g.WireFirstPacket(aead, plain)); got != 32+2+16+100+16 {
		t.Errorf("AEAD wire length %d, want 166", got)
	}

	workloads := []Workload{CurlHTTP, CurlHTTPS, BrowseAlexa, CurlLoop}
	for _, method := range sscrypto.Methods() {
		spec, err := sscrypto.Lookup(method)
		if err != nil {
			t.Fatal(err)
		}
		rec := &recordingConn{}
		c, err := ssclient.New(ssclient.Config{Server: "server:8388", Method: method, Password: "pw",
			Dial: func(string, string) (net.Conn, error) { rec.writes = nil; return rec, nil }})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			w := workloads[i%len(workloads)]
			p := g.PlaintextFirstFlight(w)
			addr, n, err := socks.Decode(p, false)
			if err != nil {
				t.Fatal(err)
			}
			conn, err := c.Dial(addr.String())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Write(p[n:]); err != nil {
				t.Fatal(err)
			}
			if want := wireLen(spec, len(p)); len(rec.writes) != 1 || rec.writes[0] != want || len(g.WireFirstPacket(spec, p)) != want {
				t.Fatalf("%s, %v flight of %d bytes: client wrote %v, want one write of %d bytes", method, w, len(p), rec.writes, want)
			}
		}
	}
}

// TestWireLooksRandom: the simulated ciphertext must be high-entropy, or
// the detector model would see something real ciphertext doesn't produce.
func TestWireLooksRandom(t *testing.T) {
	g := New(5)
	spec, _ := sscrypto.Lookup("aes-256-gcm")
	w := g.FirstWirePacket(spec, BrowseAlexa)
	if h := entropy.Shannon(w); h < 7.0 {
		t.Errorf("wire entropy %.2f, want >= 7", h)
	}
}

func TestDeterminism(t *testing.T) {
	a := New(9).PlaintextFirstFlight(BrowseAlexa)
	b := New(9).PlaintextFirstFlight(BrowseAlexa)
	if string(a) != string(b) {
		t.Error("same seed, different flights")
	}
}
