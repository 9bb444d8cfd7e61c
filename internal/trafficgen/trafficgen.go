// Package trafficgen synthesizes the client workloads of the paper's
// experiments: curl-style HTTP/HTTPS fetch loops (§3.1's Shadowsocks-libev
// setup) and Firefox-style browsing of Alexa-ranked sites (§3.1's
// OutlineVPN setup). What the GFW's detector sees is the length and
// entropy of the first data-carrying wire packet.
//
// A Shadowsocks wire packet is random bytes of the ciphertext's length,
// so AppendFirstWirePacket computes only the plaintext first flight's
// length, making exactly the random draws building it would make. Real
// plaintext comes from the reference forms (PlaintextFirstFlight,
// WireFirstPacket), the direct web packets and the protocol-native
// packets, whose bytes the detectors read.
package trafficgen

import (
	"slices"
	"strconv"

	"sslab/internal/seedfork"
	"sslab/internal/socks"
	"sslab/internal/sscrypto"
)

// Workload identifies a client behaviour pattern.
type Workload int

const (
	// CurlHTTP fetches plain HTTP (http://example.com in the paper).
	CurlHTTP Workload = iota
	// CurlHTTPS fetches HTTPS (https://www.wikipedia.org, https://gfw.report),
	// whose first flight is a TLS ClientHello.
	CurlHTTPS
	// BrowseAlexa emulates Firefox browsing a censored subset of the
	// Alexa top sites: a mix of TLS handshakes with varied SNI lengths.
	BrowseAlexa
	// CurlLoop reproduces the paper's exact client driver: each fetch
	// picks one of https://www.wikipedia.org, http://example.com, and
	// https://gfw.report.
	CurlLoop
	// OpenVPNTCP opens an OpenVPN-over-TCP tunnel: the first packet is a
	// P_CONTROL_HARD_RESET_CLIENT_V2 with no tls-auth wrapping.
	OpenVPNTCP
	// OpenVPNTCPAuth is OpenVPNTCP with tls-auth: the reset carries an
	// HMAC + replay-protection trailer, and the server silently drops
	// packets that fail authentication (probe-resistant).
	OpenVPNTCPAuth
	// ObfsFirst models an obfs-style fully encrypted transport: the first
	// packet is uniformly random bytes with no framing at all.
	ObfsFirst
	// WebDirect is innocuous direct web traffic — the same HTTP GETs and
	// TLS ClientHellos the proxied workloads tunnel, sent in the clear.
	// It is the false-positive yardstick for detector chains.
	WebDirect
)

// target is a host and port a client visits.
type target struct {
	host string
	port uint16
}

// sites is a stand-in for the Alexa-subset target list.
var sites = []string{
	"www.wikipedia.org", "example.com", "gfw.report", "www.google.com",
	"twitter.com", "www.youtube.com", "www.facebook.com", "github.com",
	"news.ycombinator.com", "www.nytimes.com", "www.bbc.co.uk",
	"en.wikipedia.org", "www.reddit.com", "duckduckgo.com",
}

// curlSites are the three targets §3.1's curl loops fetched:
// https://www.wikipedia.org, http://example.com and https://gfw.report.
var curlSites = []target{{"www.wikipedia.org", 443}, {"example.com", 80}, {"gfw.report", 443}}

// Generator produces first flights deterministically from a seed.
type Generator struct {
	// rng's stream state — draw count, Read's leftover and register —
	// serializes for engine snapshots (CaptureRNG, RestoreRNG).
	rng seedfork.Source
}

// New returns a Generator.
func New(seed int64) *Generator {
	return &Generator{rng: seedfork.NewSource(seed)}
}

// CaptureRNG returns a copy of the generator's stream state.
func (g *Generator) CaptureRNG() seedfork.State { return g.rng.State() }

// RestoreRNG moves the generator to a captured stream state, copying
// its register back (see seedfork.Source.Restore). It fails on a state
// no run leaves behind.
func (g *Generator) RestoreRNG(st seedfork.State) error { return g.rng.Restore(st) }

// pick draws the target a client visits under the workload.
func (g *Generator) pick(w Workload) target {
	switch w {
	case CurlHTTP:
		return target{sites[g.rng.Intn(len(sites))], 80}
	case CurlLoop:
		return curlSites[g.rng.Intn(len(curlSites))]
	default:
		return target{sites[g.rng.Intn(len(sites))], 443}
	}
}

// PlaintextFirstFlight builds the plaintext a Shadowsocks client sends in
// its first packet: the SOCKS-style target specification followed by the
// first application bytes (an HTTP request or a TLS ClientHello).
func (g *Generator) PlaintextFirstFlight(w Workload) []byte {
	t := g.pick(w)
	dst := socks.Addr{Type: socks.AtypDomain, Host: t.host, Port: t.port}.Append(nil)
	return g.appendWeb(dst, t)
}

// appendWeb appends the first application bytes for t: an HTTP GET on
// port 80, a TLS ClientHello otherwise.
func (g *Generator) appendWeb(dst []byte, t target) []byte {
	if t.port == 80 {
		return g.appendHTTPGET(dst, t.host)
	}
	return g.appendClientHello(dst, t.host)
}

// plaintextLen returns the length of the plaintext first flight
// PlaintextFirstFlight would build for w, making exactly the draws it
// makes, in the same order: the target; then the path and curl
// version of a GET, or the body length, random bytes and structural
// bytes of a ClientHello.
//
//sslab:hotpath
func (g *Generator) plaintextLen(w Workload) int {
	t := g.pick(w)
	n := 1 + 1 + len(t.host) + 2 // SOCKS domain spec
	if t.port == 80 {
		path := getPaths[g.rng.Intn(len(getPaths))]
		g.rng.SkipIntn(curlMinors, 1)
		return n + len(getText) + len(path) + len(t.host) + 2
	}
	body := helloMinBody + g.rng.Intn(helloMaxBody-helloMinBody+1)
	nRand := body / 3
	g.rng.Discard(nRand)
	g.rng.SkipIntn(len(helloStructural), body-nRand)
	return n + 5 + body
}

// getPaths are the request paths the curl-like workload cycles over.
var getPaths = []string{"/", "/index.html", "/wiki/Main_Page", "/search?q=weather", "/static/app.js"}

// curlMinors is how many curl versions a GET names: 7.50.0 to 7.69.0,
// so the minor version always has two digits.
const curlMinors = 20

// The fixed text of a curl-like GET, around its path, host and the
// two-digit curl minor version.
const (
	getMethod = "GET "
	getHost   = " HTTP/1.1\r\nHost: "
	getAgent  = "\r\nUser-Agent: curl/7."
	getEnd    = ".0\r\nAccept: */*\r\n\r\n"
	getText   = getMethod + getHost + getAgent + getEnd
)

// appendHTTPGET appends a curl-like request.
func (g *Generator) appendHTTPGET(dst []byte, host string) []byte {
	dst = append(dst, getMethod...)
	dst = append(dst, getPaths[g.rng.Intn(len(getPaths))]...)
	dst = append(dst, getHost...)
	dst = append(dst, host...)
	dst = append(dst, getAgent...)
	dst = strconv.AppendInt(dst, int64(50+g.rng.Intn(curlMinors)), 10)
	return append(dst, getEnd...)
}

// clientHello builds a TLS-ClientHello-shaped first flight: a 5-byte
// record header and a body whose length distribution (session ticket, key
// shares, padding) matches modern browsers (~250–600 bytes) and whose
// byte-level structure matches a real hello: about a third genuinely
// random (client random, session id, key share) and the rest structural —
// extension framing, cipher-suite ids, zero padding, and the plaintext
// SNI. The resulting per-byte entropy of ≈5–6 bits is what lets the GFW's
// entropy feature keep direct TLS below fully encrypted protocols.
func (g *Generator) appendClientHello(dst []byte, host string) []byte {
	body := helloMinBody + g.rng.Intn(helloMaxBody-helloMinBody+1)
	start := len(dst)
	dst = append(slices.Grow(dst, 5+body), zeros[:5+body]...)
	rec := dst[start:]
	rec[0] = 0x16 // handshake
	rec[1], rec[2] = 0x03, 0x01
	rec[3], rec[4] = byte(body>>8), byte(body)

	b := rec[5:]
	nRand := len(b) / 3 // client random + session id + X25519 key share
	g.rng.Read(b[:nRand])
	g.rng.Pick(b[nRand:], helloStructural)
	copy(b[nRand+4:], host) // plaintext SNI
	return dst
}

// helloStructural are the non-random ClientHello bytes: type/length
// framing, GREASE, suites, padding.
var helloStructural = []byte{
	0x00, 0x00, 0x00, 0x00, 0x01, 0x02, 0x03, 0x13, 0x13, 0xc0,
	0x2f, 0x30, 0xff, 0x01, 0x0a, 0x16, 0x17, 0x18, 0x00, 0x1d,
}

// A ClientHello body is 220 to 579 bytes long.
const helloMinBody, helloMaxBody = 220, 579

// zeros seeds fresh record bytes before they are overwritten: 5 bytes
// of record header and the longest body.
var zeros [5 + helloMaxBody]byte

// WireFirstPacket converts a plaintext first flight to the wire bytes a
// Shadowsocks connection of the given cipher would produce. Because
// Shadowsocks ciphertext is computationally indistinguishable from random
// bytes, the simulator represents it as random bytes of the correct
// length (see wireLen).
func (g *Generator) WireFirstPacket(spec sscrypto.Spec, plaintext []byte) []byte {
	out := make([]byte, wireLen(spec, len(plaintext)))
	g.rng.Read(out)
	return out
}

// wireLen is the length of a first wire packet carrying n plaintext
// bytes: IV + payload for stream ciphers, salt + sealed length + sealed
// payload for AEAD.
func wireLen(spec sscrypto.Spec, n int) int {
	if spec.Kind == sscrypto.Stream {
		return spec.IVSize + n
	}
	return spec.SaltSize() + 2 + 16 + n + 16
}

// FirstWirePacket is a convenience combining the two steps.
func (g *Generator) FirstWirePacket(spec sscrypto.Spec, w Workload) []byte {
	return g.AppendFirstWirePacket(nil, spec, w)
}

// OpenVPN-over-TCP first-packet layout (RFC-less, from the OpenVPN wire
// protocol): a 2-byte big-endian length prefix, one opcode/key-id byte
// (P_CONTROL_HARD_RESET_CLIENT_V2 << 3), an 8-byte random session ID,
// then — with tls-auth — a 20-byte HMAC, 4-byte replay packet ID and
// 4-byte net time, and finally an empty ACK array (count byte 0) and a
// 4-byte message packet ID of 0. These layouts are what Xue et al.
// ("OpenVPN Is Open to VPN Fingerprinting", USENIX Security 2022) showed
// censors match on; internal/detector's ParseClientReset accepts exactly
// these shapes.
const (
	ovpnOpcodeHardResetClientV2 = 7
	ovpnResetPlainLen           = 2 + 1 + 8 + 1 + 4
	ovpnResetAuthLen            = ovpnResetPlainLen + 20 + 4 + 4
)

// AppendOpenVPNClientReset appends the first packet of an OpenVPN-over-TCP
// handshake: a client hard reset, optionally wrapped with tls-auth.
func (g *Generator) AppendOpenVPNClientReset(dst []byte, tlsAuth bool) []byte {
	n := ovpnResetPlainLen
	if tlsAuth {
		n = ovpnResetAuthLen
	}
	start := len(dst)
	dst = append(slices.Grow(dst, n), zeros[:n]...)
	p := dst[start:]
	p[0], p[1] = byte((n-2)>>8), byte(n-2)
	p[2] = ovpnOpcodeHardResetClientV2 << 3 // key ID 0
	g.rng.Read(p[3:11])                     // session ID
	if tlsAuth {
		g.rng.Read(p[11:31]) // HMAC
		p[34] = 1            // replay packet ID 1
		g.rng.Read(p[35:39]) // net time
	}
	// Remaining bytes stay zero: empty ACK array, message packet ID 0.
	return dst
}

// AppendObfsFirstPacket appends an obfs-style fully encrypted first
// packet: uniformly random bytes with no framing, no length prefix and
// no printable prelude — the look-like-nothing shape of obfs2/obfs4 and
// the post-2021 Shadowsocks-like transports the GFW's fully-encrypted
// heuristic targets.
func (g *Generator) AppendObfsFirstPacket(dst []byte) []byte {
	n := 160 + g.rng.Intn(740)
	start := len(dst)
	dst = slices.Grow(dst, n)[:start+n]
	g.rng.Read(dst[start:])
	return dst
}

// AppendWebFirstPacket appends a direct (unproxied) web first packet: the
// same HTTP GET or TLS ClientHello the tunneled workloads would carry,
// but with no SOCKS address prefix and no encryption layer. This is the
// innocuous-traffic baseline detector chains are scored against for
// false positives.
func (g *Generator) AppendWebFirstPacket(dst []byte) []byte {
	return g.appendWeb(dst, g.pick(CurlLoop))
}

// AppendProtocolFirstPacket appends the first wire packet for any
// workload: protocol-native packets for the OpenVPN, obfs and direct-web
// workloads, and Shadowsocks wire form (via spec) for everything else.
// Shadowsocks callers keep their exact pre-existing draw order.
func (g *Generator) AppendProtocolFirstPacket(dst []byte, spec sscrypto.Spec, w Workload) []byte {
	switch w {
	case OpenVPNTCP:
		return g.AppendOpenVPNClientReset(dst, false)
	case OpenVPNTCPAuth:
		return g.AppendOpenVPNClientReset(dst, true)
	case ObfsFirst:
		return g.AppendObfsFirstPacket(dst)
	case WebDirect:
		return g.AppendWebFirstPacket(dst)
	default:
		return g.AppendFirstWirePacket(dst, spec, w)
	}
}

// AppendFirstWirePacket appends a complete first wire packet to dst and
// returns the extended slice. It builds no plaintext, only its length,
// but its bytes and draws match WireFirstPacket(spec,
// PlaintextFirstFlight(w)) exactly (the plaintext's draws first, then
// one wire-length Read), so mixing the forms on one Generator keeps the
// stream aligned. It allocates nothing once dst's capacity suffices.
//
//sslab:hotpath
func (g *Generator) AppendFirstWirePacket(dst []byte, spec sscrypto.Spec, w Workload) []byte {
	n := wireLen(spec, g.plaintextLen(w))
	start := len(dst)
	dst = slices.Grow(dst, n)[:start+n]
	g.rng.Read(dst[start:])
	return dst
}
