// Package ssclient implements a Shadowsocks client: a dialer that tunnels
// connections through a remote Shadowsocks server, and a local SOCKS5
// listener that lets ordinary applications (browsers, curl) use the tunnel
// — the client-side setup of the paper's measurement experiments (§3.1).
package ssclient

import (
	"fmt"
	"net"
	"sync"
	"time"

	"sslab/internal/metrics"
	"sslab/internal/socks"
	"sslab/internal/sscrypto"
	"sslab/internal/ssproto"
)

// Config configures a Client.
type Config struct {
	// Server is the Shadowsocks server's host:port.
	Server string
	// Method and Password must match the server's configuration.
	Method   string
	Password string
	// Dial overrides the transport dialer (tests); the default is
	// net.Dial bounded by dialTimeout.
	Dial func(network, address string) (net.Conn, error)
	// Shaper, if set, wraps the transport connection before the protocol
	// runs — the hook the brdgrd defense uses to clamp segment sizes.
	Shaper func(net.Conn) net.Conn
	// Metrics, when set, receives ssclient.* counters. A nil registry is
	// valid and makes every instrument a no-op.
	Metrics *metrics.Registry
}

// dialTimeout bounds the TCP connect to the server.
const dialTimeout = 10 * time.Second

// Client dials targets through a Shadowsocks server.
type Client struct {
	cfg  Config
	spec sscrypto.Spec
	key  []byte

	mDials      *metrics.Counter
	mDialErrors *metrics.Counter
}

// New validates cfg and returns a Client.
func New(cfg Config) (*Client, error) {
	spec, err := sscrypto.Lookup(cfg.Method)
	if err != nil {
		return nil, err
	}
	if cfg.Server == "" {
		return nil, fmt.Errorf("ssclient: server address required")
	}
	if cfg.Dial == nil {
		cfg.Dial = func(network, address string) (net.Conn, error) {
			return net.DialTimeout(network, address, dialTimeout)
		}
	}
	return &Client{
		cfg:         cfg,
		spec:        spec,
		key:         spec.Key(cfg.Password),
		mDials:      cfg.Metrics.Counter("ssclient.dials"),
		mDialErrors: cfg.Metrics.Counter("ssclient.dial_errors"),
	}, nil
}

// Dial opens a proxied connection to target (host:port). The returned
// conn's Reads and Writes are plaintext relative to the target; on the
// wire they are Shadowsocks ciphertext.
//
// The target specification is sent together with the first payload write,
// mirroring real clients: the first data-carrying packet of the session is
// [IV|salt][spec+data...] — the packet the GFW's detector measures.
func (c *Client) Dial(target string) (net.Conn, error) {
	c.mDials.Inc()
	addr, err := socks.ParseAddr(target)
	if err != nil {
		c.mDialErrors.Inc()
		return nil, err
	}
	transport, err := c.cfg.Dial("tcp", c.cfg.Server)
	if err != nil {
		c.mDialErrors.Inc()
		return nil, err
	}
	if c.cfg.Shaper != nil {
		transport = c.cfg.Shaper(transport)
	}
	ssc := ssproto.NewConn(transport, c.spec, c.key)
	return &proxiedConn{Conn: ssc, header: addr.Append(nil)}, nil
}

// proxiedConn prepends the target specification to the first write.
//
// mu is held across every underlying Write, not just the header
// handoff: Read's header flush and a relay goroutine's data write can
// run concurrently, and the cipher conns underneath (nonce counters,
// reused write buffers) are single-writer by contract.
type proxiedConn struct {
	net.Conn
	header []byte
	mu     sync.Mutex
}

func (p *proxiedConn) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.header == nil {
		return p.Conn.Write(b)
	}
	header := p.header
	p.header = nil
	if _, err := p.Conn.Write(append(header, b...)); err != nil {
		return 0, err
	}
	return len(b), nil
}

// Read flushes a pending header first (for protocols where the server
// speaks first and the client must still announce its target). The
// lock is dropped before the blocking Conn.Read so writes proceed
// while a read is parked.
func (p *proxiedConn) Read(b []byte) (int, error) {
	p.mu.Lock()
	if p.header != nil {
		header := p.header
		p.header = nil
		if _, err := p.Conn.Write(header); err != nil {
			p.mu.Unlock()
			return 0, err
		}
	}
	p.mu.Unlock()
	return p.Conn.Read(b)
}

// ServeSOCKS5 accepts local SOCKS5 clients on l and proxies each CONNECT
// through the Shadowsocks server, blocking until l is closed.
func (c *Client) ServeSOCKS5(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go c.handleSOCKS(conn)
	}
}

func (c *Client) handleSOCKS(conn net.Conn) {
	defer conn.Close()
	target, err := socks.Handshake(conn)
	if err != nil {
		return
	}
	remote, err := c.Dial(target.String())
	if err != nil {
		return
	}
	defer remote.Close()

	done := make(chan struct{}, 2)
	copyHalf := func(dst, src net.Conn) {
		defer func() { done <- struct{}{} }()
		buf := make([]byte, 16*1024)
		for {
			n, err := src.Read(buf)
			if n > 0 {
				if _, werr := dst.Write(buf[:n]); werr != nil {
					return
				}
			}
			if err != nil {
				return
			}
		}
	}
	go copyHalf(remote, conn)
	go copyHalf(conn, remote)
	<-done
}

// UDPConn is a datagram tunnel through the Shadowsocks server: Send
// encrypts and relays one datagram to target; Recv returns one reply
// datagram and the address it came from.
type UDPConn struct {
	pc     net.PacketConn
	server net.Addr
	spec   sscrypto.Spec
	key    []byte
}

// DialUDP opens a UDP association with the Shadowsocks server.
func (c *Client) DialUDP() (*UDPConn, error) {
	server, err := net.ResolveUDPAddr("udp", c.cfg.Server)
	if err != nil {
		return nil, err
	}
	pc, err := net.ListenPacket("udp", ":0")
	if err != nil {
		return nil, err
	}
	return &UDPConn{pc: pc, server: server, spec: c.spec, key: c.key}, nil
}

// Send relays one datagram to target through the proxy.
func (u *UDPConn) Send(target string, payload []byte) error {
	addr, err := socks.ParseAddr(target)
	if err != nil {
		return err
	}
	pkt, err := ssproto.PackUDP(u.spec, u.key, addr, payload)
	if err != nil {
		return err
	}
	_, err = u.pc.WriteTo(pkt, u.server)
	return err
}

// Recv waits for one relayed reply, returning its payload and the remote
// address it originated from.
func (u *UDPConn) Recv(deadline time.Time) (socks.Addr, []byte, error) {
	buf := make([]byte, 64*1024)
	u.pc.SetReadDeadline(deadline)
	n, _, err := u.pc.ReadFrom(buf)
	if err != nil {
		return socks.Addr{}, nil, err
	}
	return ssproto.UnpackUDP(u.spec, u.key, buf[:n])
}

// Close releases the local socket.
func (u *UDPConn) Close() error { return u.pc.Close() }
