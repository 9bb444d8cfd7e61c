package ssserver

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"sslab/internal/metrics"
	"sslab/internal/reaction"
	"sslab/internal/ssclient"
)

// startEcho runs a TCP server that echoes everything, prefixed with "ok:".
func startEcho(t *testing.T) net.Listener {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 4096)
				for {
					n, err := c.Read(buf)
					if n > 0 {
						c.Write(append([]byte("ok:"), buf[:n]...))
					}
					if err != nil {
						return
					}
				}
			}(c)
		}
	}()
	t.Cleanup(func() { l.Close() })
	return l
}

func startServer(t *testing.T, method string, profile reaction.Profile, timeout time.Duration) *Server {
	t.Helper()
	s, err := Listen("127.0.0.1:0", Config{
		Method:           method,
		Password:         "integration-pw",
		Profile:          profile,
		HandshakeTimeout: timeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestEndToEndProxy proxies application data through real TCP for
// representative method/profile combinations.
func TestEndToEndProxy(t *testing.T) {
	echo := startEcho(t)
	for _, tc := range []struct {
		method  string
		profile reaction.Profile
	}{
		{"chacha20-ietf-poly1305", reaction.Outline107},
		{"aes-256-gcm", reaction.LibevNew},
		{"aes-128-gcm", reaction.LibevOld},
		{"aes-256-ctr", reaction.LibevOld},
		{"aes-256-cfb", reaction.LibevNew},
		{"chacha20-ietf", reaction.LibevNew},
		{"chacha20-ietf-poly1305", reaction.Hardened},
	} {
		name := fmt.Sprintf("%s/%s", tc.method, tc.profile.Versions)
		t.Run(name, func(t *testing.T) {
			srv := startServer(t, tc.method, tc.profile, 5*time.Second)
			client, err := ssclient.New(ssclient.Config{
				Server:   srv.Addr().String(),
				Method:   tc.method,
				Password: "integration-pw",
			})
			if err != nil {
				t.Fatal(err)
			}
			conn, err := client.Dial(echo.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()

			msg := []byte("hello through the tunnel")
			if _, err := conn.Write(msg); err != nil {
				t.Fatal(err)
			}
			want := append([]byte("ok:"), msg...)
			got := make([]byte, len(want))
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := io.ReadFull(conn, got); err != nil {
				t.Fatalf("read back: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("echoed %q, want %q", got, want)
			}
			if srv.Stats.Proxied.Value() == 0 {
				t.Error("Proxied stat not incremented")
			}
		})
	}
}

// TestSOCKS5Path drives the full client stack: SOCKS5 in, Shadowsocks out.
func TestSOCKS5Path(t *testing.T) {
	echo := startEcho(t)
	srv := startServer(t, "aes-256-gcm", reaction.Outline110, 5*time.Second)

	client, err := ssclient.New(ssclient.Config{
		Server: srv.Addr().String(), Method: "aes-256-gcm", Password: "integration-pw",
	})
	if err != nil {
		t.Fatal(err)
	}
	socksLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer socksLn.Close()
	go client.ServeSOCKS5(socksLn)

	// Speak SOCKS5 like an application would.
	app, err := net.Dial("tcp", socksLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	if err := socksDialerHandshake(app, echo.Addr().String()); err != nil {
		t.Fatal(err)
	}
	if _, err := app.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	want := []byte("ok:ping")
	got := make([]byte, len(want))
	app.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(app, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("got %q, want %q", got, want)
	}
}

// probeOutcome sends payload to addr and reports whether the server closed
// the connection quickly ("fast-close") or left it open past graceDur.
func probeOutcome(t *testing.T, addr string, payload []byte, graceDur time.Duration) (fastClose bool) {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if len(payload) > 0 {
		if _, err := c.Write(payload); err != nil {
			return true // already reset
		}
	}
	c.SetReadDeadline(time.Now().Add(graceDur))
	var one [1]byte
	_, rerr := c.Read(one[:])
	if rerr == nil {
		t.Fatal("server unexpectedly sent data")
	}
	if ne, ok := rerr.(net.Error); ok && ne.Timeout() {
		return false // still open after grace: server is waiting
	}
	return true // EOF or RST: server closed
}

// TestLiveOutline106Bands verifies the live server reproduces Figure 10b's
// v1.0.6 bands over real TCP: wait below 50 bytes, close at 50 and above.
func TestLiveOutline106Bands(t *testing.T) {
	srv := startServer(t, "chacha20-ietf-poly1305", reaction.Outline106, 10*time.Second)
	addr := srv.Addr().String()
	rnd := bytes.Repeat([]byte{0xA5}, 256)

	if probeOutcome(t, addr, rnd[:49], 500*time.Millisecond) {
		t.Error("49-byte probe: server closed; want waiting")
	}
	if !probeOutcome(t, addr, rnd[:50], 2*time.Second) {
		t.Error("50-byte probe: server waiting; want immediate close")
	}
	if !probeOutcome(t, addr, rnd[:221], 2*time.Second) {
		t.Error("221-byte probe: server waiting; want immediate close")
	}
	if srv.Stats.AuthErrors.Value() < 2 {
		t.Errorf("AuthErrors = %d, want >= 2", srv.Stats.AuthErrors.Value())
	}
}

// TestLiveOutline107TimesOut verifies the post-fix behaviour: the server
// holds the connection open until its own timeout regardless of payload.
func TestLiveOutline107TimesOut(t *testing.T) {
	srv := startServer(t, "chacha20-ietf-poly1305", reaction.Outline107, 700*time.Millisecond)
	addr := srv.Addr().String()
	rnd := bytes.Repeat([]byte{0x5A}, 256)

	if probeOutcome(t, addr, rnd[:221], 300*time.Millisecond) {
		t.Error("221-byte probe closed before server timeout")
	}
	// After the server timeout it must close.
	if !probeOutcome(t, addr, rnd[:221], 3*time.Second) {
		t.Error("server never closed after timeout")
	}
}

// TestLiveLibevOldAEADThreshold verifies the salt+35 reaction threshold
// over real TCP for a 16-byte-salt AEAD (51 bytes).
func TestLiveLibevOldAEADThreshold(t *testing.T) {
	srv := startServer(t, "aes-128-gcm", reaction.LibevOld, 10*time.Second)
	addr := srv.Addr().String()
	rnd := bytes.Repeat([]byte{0x33}, 256)

	if probeOutcome(t, addr, rnd[:50], 500*time.Millisecond) {
		t.Error("50-byte probe: server closed; want waiting")
	}
	if !probeOutcome(t, addr, rnd[:51], 2*time.Second) {
		t.Error("51-byte probe: server waiting; want immediate close")
	}
}

// TestLiveReplayBlocked replays a genuine first flight and checks the
// replay filter fires on a defended profile but not on an undefended one.
func TestLiveReplayBlocked(t *testing.T) {
	echo := startEcho(t)

	record := func(srvAddr, method string) []byte {
		// Wrap the transport to record the first flight, GFW-style.
		var wire []byte
		client, err := ssclient.New(ssclient.Config{
			Server: srvAddr, Method: method, Password: "integration-pw",
			Shaper: func(c net.Conn) net.Conn { return &tapConn{Conn: c, tap: &wire} },
		})
		if err != nil {
			t.Fatal(err)
		}
		conn, err := client.Dial(echo.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conn.Write([]byte("legit data"))
		buf := make([]byte, 16)
		conn.SetReadDeadline(time.Now().Add(3 * time.Second))
		io.ReadFull(conn, buf[:13]) // "ok:legit data"
		conn.Close()
		return wire
	}

	srv := startServer(t, "aes-256-gcm", reaction.LibevNew, 1*time.Second)
	wire := record(srv.Addr().String(), "aes-256-gcm")
	if len(wire) == 0 {
		t.Fatal("nothing recorded")
	}
	if probeOutcome(t, srv.Addr().String(), wire, 300*time.Millisecond) {
		t.Error("LibevNew closed a replay immediately; want timeout behaviour")
	}
	waitFor(t, 2*time.Second, func() bool { return srv.Stats.ReplaysBlocked.Value() >= 1 })

	undefended := startServer(t, "aes-256-gcm", reaction.Outline107, 1*time.Second)
	wire2 := record(undefended.Addr().String(), "aes-256-gcm")
	// Replaying to the undefended server reaches the proxy stage again.
	before := undefended.Stats.Proxied.Value()
	c, err := net.Dial("tcp", undefended.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c.Write(wire2)
	buf := make([]byte, 8)
	c.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Errorf("undefended server did not serve the replay: %v", err)
	}
	c.Close()
	if undefended.Stats.Proxied.Value() != before+1 {
		t.Error("replay did not reach the proxy stage on the undefended server")
	}
}

type tapConn struct {
	net.Conn
	tap *[]byte
}

func (c *tapConn) Write(p []byte) (int, error) {
	if len(*c.tap) == 0 {
		*c.tap = append(*c.tap, p...)
	}
	return c.Conn.Write(p)
}

func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Error("condition not met in time")
}

// socksDialerHandshake is a minimal client-side SOCKS5 CONNECT.
func socksDialerHandshake(c net.Conn, target string) error {
	host, port, err := net.SplitHostPort(target)
	if err != nil {
		return err
	}
	var portN int
	fmt.Sscanf(port, "%d", &portN)
	if _, err := c.Write([]byte{5, 1, 0}); err != nil {
		return err
	}
	resp := make([]byte, 2)
	if _, err := io.ReadFull(c, resp); err != nil {
		return err
	}
	ip := net.ParseIP(host).To4()
	req := append([]byte{5, 1, 0, 1}, ip...)
	req = append(req, byte(portN>>8), byte(portN))
	if _, err := c.Write(req); err != nil {
		return err
	}
	rep := make([]byte, 10)
	if _, err := io.ReadFull(c, rep); err != nil {
		return err
	}
	if rep[1] != 0 {
		return fmt.Errorf("socks connect failed: %d", rep[1])
	}
	return nil
}

// TestConfigValidation covers constructor errors.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Method: "nope", Password: "x"}); err == nil {
		t.Error("unknown method accepted")
	}
	if _, err := New(Config{Method: "aes-256-ctr", Password: "x", Profile: reaction.Outline107}); err == nil {
		t.Error("stream method accepted by AEAD-only profile")
	}
	s, err := New(Config{Method: "aes-256-gcm", Password: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if s.cfg.Profile != reaction.Hardened {
		t.Error("zero profile did not default to Hardened")
	}
}

// TestLiveStreamFirstPacketCompleteness pins the stream-cipher behaviour
// difference over real TCP: old libev closes immediately when the first
// data event lacks a complete target spec; new libev keeps waiting.
func TestLiveStreamFirstPacketCompleteness(t *testing.T) {
	partial := make([]byte, 16+3) // full IV + 3 ciphertext bytes (incomplete spec)
	for i := range partial {
		partial[i] = byte(i + 101)
	}

	oldSrv := startServer(t, "aes-256-ctr", reaction.LibevOld, 10*time.Second)
	if !probeOutcome(t, oldSrv.Addr().String(), partial, 2*time.Second) {
		t.Error("old libev kept waiting on an incomplete first packet; want immediate close")
	}

	newSrv := startServer(t, "aes-256-ctr", reaction.LibevNew, 10*time.Second)
	if probeOutcome(t, newSrv.Addr().String(), partial, 500*time.Millisecond) {
		t.Error("new libev closed on an incomplete first packet; want waiting")
	}
}

// TestLiveHardenedRejectsReplayQuietly: the hardened server must neither
// serve nor visibly reject a replayed first flight — it just times out.
func TestLiveHardenedRejectsReplayQuietly(t *testing.T) {
	echo := startEcho(t)
	srv := startServer(t, "chacha20-ietf-poly1305", reaction.Hardened, 800*time.Millisecond)

	var wire []byte
	client, err := ssclient.New(ssclient.Config{
		Server: srv.Addr().String(), Method: "chacha20-ietf-poly1305", Password: "integration-pw",
		Shaper: func(c net.Conn) net.Conn { return &tapConn{Conn: c, tap: &wire} },
	})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := client.Dial(echo.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte("genuine"))
	buf := make([]byte, 10)
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	io.ReadFull(conn, buf) // "ok:genuine"
	conn.Close()

	// Replay: the server must hold the connection open (no data, no
	// close) until its own timeout.
	c, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Write(wire)
	c.SetReadDeadline(time.Now().Add(400 * time.Millisecond))
	var one [1]byte
	if _, err := c.Read(one[:]); err == nil {
		t.Fatal("hardened server served a replay")
	} else if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
		t.Errorf("hardened server closed early on replay: %v", err)
	}
	waitFor(t, 2*time.Second, func() bool { return srv.Stats.ReplaysBlocked.Value() >= 1 })
}

// splitConn sends its first write in two segments, cut after the first
// cut bytes, with a pause between them so the server reads them as two
// data events.
type splitConn struct {
	net.Conn
	cut  int
	sent bool
}

func (c *splitConn) Write(p []byte) (int, error) {
	if c.sent || len(p) <= c.cut {
		return c.Conn.Write(p)
	}
	c.sent = true
	if _, err := c.Conn.Write(p[:c.cut]); err != nil {
		return 0, err
	}
	time.Sleep(100 * time.Millisecond)
	n, err := c.Conn.Write(p[c.cut:])
	return c.cut + n, err
}

// TestLiveStreamSpecAcrossSegments: a stream-cipher server that waits for
// an incomplete target spec must accept a later segment longer than the
// first data event, and proxy the connection.
func TestLiveStreamSpecAcrossSegments(t *testing.T) {
	echo := startEcho(t)
	srv := startServer(t, "aes-256-ctr", reaction.LibevNew, 5*time.Second)
	client, err := ssclient.New(ssclient.Config{
		Server: srv.Addr().String(), Method: "aes-256-ctr", Password: "integration-pw",
		// The IV and the first 3 bytes of the 7-byte IPv4 spec, then the rest.
		Shaper: func(c net.Conn) net.Conn { return &splitConn{Conn: c, cut: 16 + 3} },
	})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := client.Dial(echo.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	msg := bytes.Repeat([]byte("across segments "), 12)
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	want := append([]byte("ok:"), msg...)
	got := make([]byte, len(want))
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatalf("read back: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("echoed %q, want %q", got, want)
	}
	if n := srv.Stats.Proxied.Value(); n != 1 {
		t.Errorf("Proxied = %d, want 1", n)
	}
}

// TestStatsAreRegistryCounters: each event is counted once, in the
// registry the caller supplied, and Stats reads the same counters — the
// UDP relay's auth failures included.
func TestStatsAreRegistryCounters(t *testing.T) {
	echo := startEcho(t)
	reg := metrics.New()
	srv, err := Listen("127.0.0.1:0", Config{
		Method: "chacha20-ietf-poly1305", Password: "integration-pw",
		Profile: reaction.Hardened, HandshakeTimeout: time.Second, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// One proxied fetch, recording its first flight.
	var wire []byte
	client, err := ssclient.New(ssclient.Config{
		Server: srv.Addr().String(), Method: "chacha20-ietf-poly1305", Password: "integration-pw",
		Shaper: func(c net.Conn) net.Conn { return &tapConn{Conn: c, tap: &wire} },
	})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := client.Dial(echo.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte("counted"))
	buf := make([]byte, 10)
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatalf("fetch: %v", err)
	}
	conn.Close()

	// One replayed salt.
	c, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Write(wire)

	// One undecryptable UDP datagram.
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	go srv.ServeUDP(pc)
	raw, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	raw.Write(bytes.Repeat([]byte{0xAB}, 120))

	waitFor(t, 2*time.Second, func() bool {
		return srv.Stats.ReplaysBlocked.Value() == 1 && srv.Stats.AuthErrors.Value() == 1
	})
	for _, tc := range []struct {
		name  string
		stat  *metrics.Counter
		count int64
	}{
		{"ssserver.accepted", srv.Stats.Accepted, 2},
		{"ssserver.proxied", srv.Stats.Proxied, 1},
		{"ssserver.auth_errors", srv.Stats.AuthErrors, 1},
		{"ssserver.replays_blocked", srv.Stats.ReplaysBlocked, 1},
		{"ssserver.relay_errors", srv.Stats.RelayErrors, 0},
	} {
		if got := reg.Counter(tc.name).Value(); got != tc.count || tc.stat.Value() != got {
			t.Errorf("%s: registry %d, Stats %d, want %d in both", tc.name, got, tc.stat.Value(), tc.count)
		}
	}
}
