// Package ssserver implements runnable Shadowsocks proxy servers over real
// TCP, with per-version behaviour profiles matching the implementations the
// paper studied. A Server is a complete proxy: it decrypts the client
// stream, parses the target specification, dials the target, and relays —
// while reacting to malformed or replayed first packets exactly the way the
// profiled implementation would (immediate close, which yields a FIN/ACK
// or RST depending on unread data, versus reading until timeout).
package ssserver

import (
	"crypto/cipher"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sslab/internal/metrics"
	"sslab/internal/netsim"
	"sslab/internal/reaction"
	"sslab/internal/replay"
	"sslab/internal/socks"
	"sslab/internal/sscrypto"
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
	// Timeouts bounds the connection stages: Connect for outbound dials
	// (was a hard-coded 10 s), Handshake for the first protocol data
	// (default 60 s, the common implementation default the paper
	// contrasts with the GFW's sub-10 s prober patience), and Idle for
	// the relay loops (zero keeps the historical wait-forever relay).
	Timeouts netsim.Timeouts
	// Dial is the outbound dialer; defaults to net.Dial bounded by
	// Timeouts.Connect. Tests substitute it to avoid real network
	// traffic.
	Dial func(network, address string) (net.Conn, error)
	// Logf, when set, receives debug logs.
	Logf func(format string, args ...any)
	// Metrics, when set, receives ssserver.* counters mirroring Stats.
	// A nil registry is valid and makes every instrument a no-op.
	Metrics *metrics.Registry
}

// Stats counts server activity; all fields are updated atomically.
type Stats struct {
	Accepted       atomic.Int64 // connections accepted
	Proxied        atomic.Int64 // connections that reached the relay stage
	AuthErrors     atomic.Int64 // authentication / parse failures
	ReplaysBlocked atomic.Int64 // connections rejected by the replay filter
	RelayErrors    atomic.Int64 // failed writes on the relay path
}

// Server is a running Shadowsocks server.
type Server struct {
	cfg    Config
	spec   sscrypto.Spec
	key    []byte
	filter replay.Filter

	ln     net.Listener
	wg     sync.WaitGroup
	closed atomic.Bool

	// Stats is exported for tests and monitoring.
	Stats Stats

	// Pre-resolved instruments (nil-safe when no registry is configured).
	mAccepted   *metrics.Counter
	mProxied    *metrics.Counter
	mAuthErrors *metrics.Counter
	mReplays    *metrics.Counter
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
	cfg.Timeouts = cfg.Timeouts.WithDefaults()
	if cfg.Dial == nil {
		connect := cfg.Timeouts.Connect
		cfg.Dial = func(network, address string) (net.Conn, error) {
			return net.DialTimeout(network, address, connect)
		}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s := &Server{
		cfg:         cfg,
		spec:        spec,
		key:         spec.Key(cfg.Password),
		mAccepted:   cfg.Metrics.Counter("ssserver.accepted"),
		mProxied:    cfg.Metrics.Counter("ssserver.proxied"),
		mAuthErrors: cfg.Metrics.Counter("ssserver.auth_errors"),
		mReplays:    cfg.Metrics.Counter("ssserver.replays_blocked"),
	}
	switch {
	case !cfg.Profile.ReplayDefense:
		s.filter = replay.None{}
	case cfg.Profile == reaction.Hardened:
		s.filter = replay.NewTimedFilter(2 * time.Minute)
	default:
		s.filter = replay.NewNonceFilter(1 << 16)
	}
	return s, nil
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
		s.Stats.Accepted.Add(1)
		s.mAccepted.Inc()
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

// armIdle bounds one relay-stage read by Timeouts.Idle. A zero Idle is
// a no-op: the relay entry points clear the handshake deadline once, so
// the historical wait-forever behaviour (and its syscall count) is
// unchanged. Called before every relay read, so the window is per-read.
func (s *Server) armIdle(c net.Conn) {
	if d := s.cfg.Timeouts.Idle; d > 0 {
		c.SetReadDeadline(time.Now().Add(d))
	}
}

// handle serves one client connection.
func (s *Server) handle(c net.Conn) {
	defer c.Close()
	deadline := time.Now().Add(s.cfg.Timeouts.Handshake)
	c.SetReadDeadline(deadline)

	var err error
	if s.spec.Kind == sscrypto.AEAD {
		err = s.handleAEAD(c)
	} else {
		err = s.handleStream(c)
	}
	if errors.Is(err, errProtocol) {
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

// readTargetStream incrementally decrypts and parses the stream-cipher
// target specification. firstEvent is everything that arrived in the first
// read — old libev requires the complete specification within it.
func (s *Server) handleStream(c net.Conn) error {
	iv := make([]byte, s.spec.IVSize)
	if _, err := io.ReadFull(c, iv); err != nil {
		return nil // connection died or timed out while waiting
	}
	if s.filter.Replay(iv, time.Now()) {
		s.Stats.ReplaysBlocked.Add(1)
		s.mReplays.Inc()
		return errProtocol
	}
	dec, err := s.spec.NewStreamDecrypter(s.key, iv)
	if err != nil {
		return errProtocol
	}

	// First data event: one Read call's worth of ciphertext.
	buf := make([]byte, 16*1024)
	n, err := c.Read(buf)
	if err != nil {
		return nil
	}
	plain := make([]byte, 0, n)
	tmp := make([]byte, n)
	dec.XORKeyStream(tmp, buf[:n])
	plain = append(plain, tmp...)

	for {
		target, consumed, derr := socks.Decode(plain, s.cfg.Profile.AtypMask)
		switch {
		case derr == nil:
			s.Stats.Proxied.Add(1)
			s.mProxied.Inc()
			return s.relayStream(c, dec, iv, target, plain[consumed:])
		case errors.Is(derr, socks.ErrIncomplete):
			if s.cfg.Profile.RSTOnError {
				// Old libev: the whole spec must be in the first packet.
				s.Stats.AuthErrors.Add(1)
				s.mAuthErrors.Inc()
				return errProtocol
			}
			// New libev keeps waiting for the rest.
			m, err := c.Read(buf)
			if err != nil {
				return nil
			}
			tmp = tmp[:m]
			dec.XORKeyStream(tmp, buf[:m])
			plain = append(plain, tmp...)
		default:
			s.Stats.AuthErrors.Add(1)
			s.mAuthErrors.Inc()
			return errProtocol
		}
	}
}

// relayStream connects to target and splices traffic, encrypting
// server->client with a fresh IV and decrypting client->server with dec.
func (s *Server) relayStream(c net.Conn, dec cipher.Stream, clientIV []byte, target socks.Addr, initial []byte) error {
	remote, err := s.cfg.Dial("tcp", target.String())
	if err != nil {
		s.cfg.Logf("dial %v: %v", target, err)
		return nil // close; FIN or RST per pending data
	}
	defer remote.Close()
	if len(initial) > 0 {
		if _, err := remote.Write(initial); err != nil {
			return nil
		}
	}
	c.SetReadDeadline(time.Time{})

	done := make(chan struct{}, 2)
	// client -> remote (decrypt).
	go func() {
		defer func() { done <- struct{}{} }()
		buf := make([]byte, 16*1024)
		for {
			s.armIdle(c)
			n, err := c.Read(buf)
			if n > 0 {
				dec.XORKeyStream(buf[:n], buf[:n])
				if _, werr := remote.Write(buf[:n]); werr != nil {
					return
				}
			}
			if err != nil {
				return
			}
		}
	}()
	// remote -> client (encrypt under a server-direction IV).
	go func() {
		defer func() { done <- struct{}{} }()
		ivOut := make([]byte, s.spec.IVSize)
		if _, err := io.ReadFull(randReader, ivOut); err != nil {
			return
		}
		enc, err := s.spec.NewStream(s.key, ivOut)
		if err != nil {
			return
		}
		if _, err := c.Write(ivOut); err != nil {
			return
		}
		buf := make([]byte, 16*1024)
		for {
			s.armIdle(remote)
			n, err := remote.Read(buf)
			if n > 0 {
				enc.XORKeyStream(buf[:n], buf[:n])
				if _, werr := c.Write(buf[:n]); werr != nil {
					return
				}
			}
			if err != nil {
				return
			}
		}
	}()
	<-done
	return nil
}

// handleAEAD serves the AEAD construction.
func (s *Server) handleAEAD(c net.Conn) error {
	saltLen := s.spec.SaltSize()
	salt := make([]byte, saltLen)
	if _, err := io.ReadFull(c, salt); err != nil {
		return nil
	}
	if s.filter.Replay(salt, time.Now()) {
		s.Stats.ReplaysBlocked.Add(1)
		s.mReplays.Inc()
		return errProtocol
	}
	aead, err := s.spec.NewAEAD(sscrypto.SessionSubkey(s.key, salt))
	if err != nil {
		return errProtocol
	}
	nonce := make([]byte, aead.NonceSize())
	overhead := aead.Overhead()

	// Per-connection scratch, reused across chunks: the returned plaintext
	// aliases body and is only valid until the next readChunk call — both
	// callers fully consume it before asking for the next chunk.
	headLen := 2 + overhead
	head := make([]byte, headLen, headLen+overhead+1)
	lenScratch := make([]byte, 0, 2)
	var body []byte

	readChunk := func() ([]byte, error) {
		head = head[:headLen]
		if _, err := io.ReadFull(c, head); err != nil {
			return nil, err
		}
		// Emulate libev's extra buffering: it does not attempt decryption
		// until a payload tag could also be present.
		if s.cfg.Profile.WaitPayloadTag {
			head = head[:headLen+overhead+1]
			if _, err := io.ReadFull(c, head[headLen:]); err != nil {
				return nil, err
			}
		}
		lenPlain, err := aead.Open(lenScratch[:0], nonce, head[:headLen], nil)
		if err != nil {
			s.Stats.AuthErrors.Add(1)
			s.mAuthErrors.Inc()
			return nil, errProtocol
		}
		incNonce(nonce)
		n := int(lenPlain[0])<<8 | int(lenPlain[1])
		if cap(body) < n+overhead {
			body = make([]byte, n+overhead)
		}
		body = body[:n+overhead]
		already := copy(body, head[headLen:])
		if _, err := io.ReadFull(c, body[already:]); err != nil {
			return nil, err
		}
		plain, err := aead.Open(body[:0], nonce, body, nil)
		if err != nil {
			s.Stats.AuthErrors.Add(1)
			s.mAuthErrors.Inc()
			return nil, errProtocol
		}
		incNonce(nonce)
		return plain, nil
	}

	first, err := readChunk()
	if err != nil {
		if errors.Is(err, errProtocol) {
			return errProtocol
		}
		return nil
	}
	target, consumed, derr := socks.Decode(first, false)
	if derr != nil {
		s.Stats.AuthErrors.Add(1)
		s.mAuthErrors.Inc()
		return errProtocol
	}
	s.Stats.Proxied.Add(1)
	s.mProxied.Inc()
	return s.relayAEAD(c, target, first[consumed:], readChunk)
}

// relayAEAD connects to target and splices traffic in AEAD chunks.
func (s *Server) relayAEAD(c net.Conn, target socks.Addr, initial []byte, readChunk func() ([]byte, error)) error {
	remote, err := s.cfg.Dial("tcp", target.String())
	if err != nil {
		s.cfg.Logf("dial %v: %v", target, err)
		return nil
	}
	defer remote.Close()
	if len(initial) > 0 {
		if _, err := remote.Write(initial); err != nil {
			return nil
		}
	}
	c.SetReadDeadline(time.Time{})

	done := make(chan struct{}, 2)
	go func() {
		defer func() { done <- struct{}{} }()
		for {
			s.armIdle(c)
			chunk, err := readChunk()
			if err != nil {
				return
			}
			if _, err := remote.Write(chunk); err != nil {
				return
			}
		}
	}()
	go func() {
		defer func() { done <- struct{}{} }()
		salt := make([]byte, s.spec.SaltSize())
		if _, err := io.ReadFull(randReader, salt); err != nil {
			return
		}
		aead, err := s.spec.NewAEAD(sscrypto.SessionSubkey(s.key, salt))
		if err != nil {
			return
		}
		nonce := make([]byte, aead.NonceSize())
		if _, err := c.Write(salt); err != nil {
			return
		}
		buf := make([]byte, 8*1024)
		out := make([]byte, 0, 2+2*aead.Overhead()+len(buf))
		var lb [2]byte
		for {
			s.armIdle(remote)
			n, err := remote.Read(buf)
			if n > 0 {
				lb[0], lb[1] = byte(n>>8), byte(n)
				out = aead.Seal(out[:0], nonce, lb[:], nil)
				incNonce(nonce)
				out = aead.Seal(out, nonce, buf[:n], nil)
				incNonce(nonce)
				if _, werr := c.Write(out); werr != nil {
					return
				}
			}
			if err != nil {
				return
			}
		}
	}()
	<-done
	return nil
}

func incNonce(n []byte) {
	for i := range n {
		n[i]++
		if n[i] != 0 {
			return
		}
	}
}

// randReader provides IV/salt randomness; tests may substitute it for
// determinism.
var randReader io.Reader = rand.Reader
