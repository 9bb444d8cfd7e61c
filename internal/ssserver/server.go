// Package ssserver implements runnable Shadowsocks proxy servers over real
// TCP, with per-version behaviour profiles matching the implementations the
// paper studied. A Server is a complete proxy: it decrypts the client
// stream, parses the target specification, dials the target, and relays —
// while reacting to malformed or replayed first packets exactly the way the
// profiled implementation would (immediate close, which yields a FIN/ACK
// or RST depending on unread data, versus reading until timeout). The wire
// constructions are internal/ssproto's, shared with the client; the server
// adds only the profile's handshake.
package ssserver

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sslab/internal/metrics"
	"sslab/internal/reaction"
	"sslab/internal/replay"
	"sslab/internal/socks"
	"sslab/internal/sscrypto"
	"sslab/internal/ssproto"
)

// Config configures a Server.
type Config struct {
	// Method is the Shadowsocks cipher method name (see sscrypto.Methods).
	Method string
	// Password is the shared secret.
	Password string
	// Profile selects the implementation behaviour to emulate. The zero
	// value defaults to the hardened reference profile.
	Profile reaction.Profile
	// HandshakeTimeout bounds how long the server waits for a
	// connection's first protocol data, and how long a profile that
	// reads until timeout goes on reading after a protocol error
	// (default 60 s, the common implementation default the paper
	// contrasts with the GFW's sub-10 s prober patience).
	HandshakeTimeout time.Duration
	// Dial is the outbound dialer; defaults to net.Dial bounded by
	// dialTimeout. Tests substitute it to avoid real network traffic.
	Dial func(network, address string) (net.Conn, error)
	// Logf, when set, receives debug logs.
	Logf func(format string, args ...any)
	// Metrics receives the ssserver.* counters that Stats holds. When
	// nil the server counts into a registry of its own.
	Metrics *metrics.Registry
}

// dialTimeout bounds the TCP connect to a proxied target.
const dialTimeout = 10 * time.Second

// Stats holds the server's counters, one per event, each the registry
// counter named beside it.
type Stats struct {
	Accepted       *metrics.Counter // ssserver.accepted: connections accepted
	Proxied        *metrics.Counter // ssserver.proxied: connections that reached the relay stage
	AuthErrors     *metrics.Counter // ssserver.auth_errors: authentication / parse failures, TCP and UDP
	ReplaysBlocked *metrics.Counter // ssserver.replays_blocked: connections rejected by the replay filter
	RelayErrors    *metrics.Counter // ssserver.relay_errors: failed writes on the UDP relay path
}

// Server is a running Shadowsocks server.
type Server struct {
	cfg    Config
	spec   sscrypto.Spec
	key    []byte
	filter replay.Filter
	// udpIdle is how long a UDP association waits for a reply
	// (udpSessionTimeout; tests shorten it).
	udpIdle time.Duration

	ln     net.Listener
	wg     sync.WaitGroup
	closed atomic.Bool

	// Stats is exported for tests and monitoring.
	Stats Stats
}

// New creates a Server from cfg without binding a socket; use Serve with
// your own listener, or Listen to bind one.
func New(cfg Config) (*Server, error) {
	if cfg.Profile == (reaction.Profile{}) {
		cfg.Profile = reaction.Hardened
	}
	spec, err := sscrypto.Lookup(cfg.Method)
	if err != nil {
		return nil, err
	}
	if cfg.Profile.AEADOnly && spec.Kind != sscrypto.AEAD {
		return nil, fmt.Errorf("ssserver: %s %s supports AEAD methods only",
			cfg.Profile.Name, cfg.Profile.Versions)
	}
	if cfg.HandshakeTimeout <= 0 {
		cfg.HandshakeTimeout = 60 * time.Second
	}
	if cfg.Dial == nil {
		cfg.Dial = func(network, address string) (net.Conn, error) {
			return net.DialTimeout(network, address, dialTimeout)
		}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.New()
	}
	return &Server{
		cfg:     cfg,
		spec:    spec,
		key:     spec.Key(cfg.Password),
		filter:  reaction.NewFilter(cfg.Profile),
		udpIdle: udpSessionTimeout,
		Stats: Stats{
			Accepted:       cfg.Metrics.Counter("ssserver.accepted"),
			Proxied:        cfg.Metrics.Counter("ssserver.proxied"),
			AuthErrors:     cfg.Metrics.Counter("ssserver.auth_errors"),
			ReplaysBlocked: cfg.Metrics.Counter("ssserver.replays_blocked"),
			RelayErrors:    cfg.Metrics.Counter("ssserver.relay_errors"),
		},
	}, nil
}

// Listen binds addr and starts serving in a background goroutine.
func Listen(addr string, cfg Config) (*Server, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.Serve(ln)
	}()
	return s, nil
}

// Addr returns the bound address (nil if created with New).
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Serve accepts connections on l until it is closed.
func (s *Server) Serve(l net.Listener) {
	for {
		c, err := l.Accept()
		if err != nil {
			return
		}
		s.Stats.Accepted.Inc()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(c)
		}()
	}
}

// Close stops the listener and waits for in-flight connections to finish.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	s.wg.Wait()
	return err
}

// errProtocol marks conditions the profiled implementations treat as
// protocol errors (bad auth, bad address type, replay, short first packet).
var errProtocol = errors.New("ssserver: protocol error")

// libevWait is what libev reads after the salt before it judges an AEAD
// first flight (Profile.WaitPayloadTag): the sealed length and its tag,
// the first payload tag and one payload byte.
const libevWait = 2 + 16 + 16 + 1

// relayBufSize is the read buffer of each relay direction.
const relayBufSize = 8 << 10

// handle serves one client connection.
func (s *Server) handle(c net.Conn) {
	defer c.Close()
	deadline := time.Now().Add(s.cfg.HandshakeTimeout)
	c.SetReadDeadline(deadline)
	if errors.Is(s.serve(c), errProtocol) {
		s.onProtocolError(c, deadline)
	}
}

// onProtocolError realizes the profile's error behaviour. Closing right
// away leaves any unread bytes in the kernel buffer, so the kernel emits a
// RST if the probe was longer than what we consumed and a FIN/ACK if we
// had read everything — reproducing Figure 10's RST/FIN-ACK split without
// any explicit flag juggling. Reading until the deadline first reproduces
// the "probing resistance via timeout" behaviour of the newer versions.
func (s *Server) onProtocolError(c net.Conn, deadline time.Time) {
	if !s.cfg.Profile.RSTOnError {
		c.SetReadDeadline(deadline)
		io.Copy(io.Discard, c) // read forever; the deadline unblocks us
	}
	// The deferred Close in handle produces the RST (unread data pending)
	// or FIN/ACK (everything read) the prober observes.
}

// authError counts an authentication or target-parse failure.
func (s *Server) authError() error {
	s.Stats.AuthErrors.Inc()
	return errProtocol
}

// serve runs the profile's handshake on c and proxies the connection
// through ssproto. The handshake reads exactly what the profiled
// implementation reads before it judges a first flight: the IV or salt,
// libevWait more bytes under an AEAD WaitPayloadTag profile, then the
// first data event — one Read of stream ciphertext or the first AEAD
// chunk. Whatever the probe holds beyond that stays unread.
func (s *Server) serve(c net.Conn) error {
	saltLen := s.spec.SaltSize()
	head := make([]byte, saltLen, saltLen+libevWait)
	if _, err := io.ReadFull(c, head); err != nil {
		return nil // connection died or timed out while waiting
	}
	if now := time.Now(); s.filter.Replay(head, now, now) {
		s.Stats.ReplaysBlocked.Inc()
		return errProtocol
	}
	if s.spec.Kind == sscrypto.AEAD && s.cfg.Profile.WaitPayloadTag {
		head = head[:cap(head)]
		if _, err := io.ReadFull(c, head[saltLen:]); err != nil {
			return nil
		}
	}
	ssc := ssproto.NewConn(&prefixConn{Conn: c, prefix: head}, s.spec, s.key)

	mask := s.cfg.Profile.AtypMask && s.spec.Kind == sscrypto.Stream
	buf := make([]byte, relayBufSize) // goes on to carry client→target
	n, err := ssc.Read(buf)
	for {
		if errors.Is(err, ssproto.ErrAuth) {
			return s.authError()
		}
		if err != nil {
			return nil
		}
		target, consumed, derr := socks.Decode(buf[:n], mask)
		switch {
		case derr == nil:
			s.Stats.Proxied.Inc()
			s.proxy(ssc, target, buf, buf[consumed:n])
			return nil
		case errors.Is(derr, socks.ErrIncomplete) && s.spec.Kind == sscrypto.Stream && !s.cfg.Profile.RSTOnError:
			// New libev keeps waiting for the rest of a stream-cipher
			// spec; old libev needs all of it in the first data event.
			// An incomplete spec is shorter than socks.MaxAddrLen, so
			// buf has room.
			var m int
			m, err = ssc.Read(buf[n:])
			n += m
		default:
			return s.authError()
		}
	}
}

// prefixConn hands the bytes the handshake already read back to ssproto
// before reading on from the connection.
type prefixConn struct {
	net.Conn
	prefix []byte
}

func (c *prefixConn) Read(p []byte) (int, error) {
	if len(c.prefix) == 0 {
		return c.Conn.Read(p)
	}
	n := copy(p, c.prefix)
	c.prefix = c.prefix[n:]
	return n, nil
}

// proxy dials target, forwards the first flight's data and splices ssc
// with the target until either direction stops. buf is the handshake's
// read buffer, reused for client→target.
func (s *Server) proxy(ssc net.Conn, target socks.Addr, buf, initial []byte) {
	remote, err := s.cfg.Dial("tcp", target.String())
	if err != nil {
		s.cfg.Logf("dial %v: %v", target, err)
		return // close; FIN or RST per pending data
	}
	defer remote.Close()
	if len(initial) > 0 {
		if _, err := remote.Write(initial); err != nil {
			return
		}
	}
	ssc.SetReadDeadline(time.Time{})

	done := make(chan struct{}, 2)
	go func() {
		s.pump(remote, ssc, buf)
		done <- struct{}{}
	}()
	go func() {
		s.pump(ssc, remote, make([]byte, relayBufSize))
		done <- struct{}{}
	}()
	<-done
}

// pump copies src to dst through buf until either side fails. A client
// stream that fails authentication mid-connection counts as an auth
// error.
func (s *Server) pump(dst, src net.Conn, buf []byte) {
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			if errors.Is(err, ssproto.ErrAuth) {
				s.authError()
			}
			return
		}
	}
}
