package defense

import (
	"net"
	"sync"
)

// TLSRecordFraming wraps a Shadowsocks connection's traffic in TLS
// application-data record framing: a fake ClientHello-shaped first
// record, then every write as [0x17 0x03 0x03 len₁ len₀][payload].
//
// Against the pure length+entropy detector of this paper this changes
// little — the record bodies are still ciphertext, and the FPStudy shows
// realistic TLS is probed at Shadowsocks-like rates anyway. Its value
// appears when the censor exempts TLS-framed flows to avoid mass-probing
// the web (a detector chain listing "tlsexempt"): then framing drops
// probing to zero, which is the mechanism behind the probe-resistant
// tools §8 cites (trojan, naiveproxy, HTTPT) — hide inside the protocol
// the censor cannot afford to probe.
//
// The framing is a model of that class of tools, not a TLS implementation:
// a real censor can of course distinguish it from genuine TLS by deeper
// fingerprinting (no certificate exchange, wrong handshake transcript).
type TLSRecordFraming struct{}

// ConnShaper returns an ssclient-compatible shaper.
func (TLSRecordFraming) ConnShaper() func(net.Conn) net.Conn {
	return func(c net.Conn) net.Conn {
		return &tlsFramedConn{Conn: c}
	}
}

// FrameFirstPacket converts a first-flight payload to its on-the-wire
// image under the framing — the flow-level form the netsim experiments
// use. The first flight is presented as a handshake record.
func (TLSRecordFraming) FrameFirstPacket(payload []byte) []byte {
	return frameRecord(0x16, payload)
}

// IsTLSFramed reports whether a first packet looks like a TLS record —
// the test a whitelist-style censor applies.
func IsTLSFramed(p []byte) bool {
	return len(p) >= 5 &&
		(p[0] == 0x16 || p[0] == 0x17) &&
		p[1] == 0x03 && p[2] <= 0x04 &&
		int(p[3])<<8|int(p[4]) == len(p)-5
}

func frameRecord(typ byte, payload []byte) []byte {
	out := make([]byte, 5+len(payload))
	out[0] = typ
	out[1], out[2] = 0x03, 0x03
	out[3], out[4] = byte(len(payload)>>8), byte(len(payload))
	copy(out[5:], payload)
	return out
}

// tlsFramedConn wraps each Write in a record and strips records on Read.
type tlsFramedConn struct {
	net.Conn
	mu     sync.Mutex
	first  bool
	rBuf   []byte
	header [5]byte
	hFill  int
}

func (c *tlsFramedConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	typ := byte(0x17)
	if !c.first {
		c.first = true
		typ = 0x16 // first flight framed as a handshake record
	}
	c.mu.Unlock()
	// Records cap at 2^14 bytes of payload.
	total := 0
	for len(p) > 0 {
		n := len(p)
		if n > 1<<14 {
			n = 1 << 14
		}
		if _, err := c.Conn.Write(frameRecord(typ, p[:n])); err != nil {
			return total, err
		}
		typ = 0x17
		total += n
		p = p[n:]
	}
	return total, nil
}

func (c *tlsFramedConn) Read(p []byte) (int, error) {
	for len(c.rBuf) == 0 {
		// Fill the record header.
		for c.hFill < 5 {
			n, err := c.Conn.Read(c.header[c.hFill:])
			c.hFill += n
			if err != nil {
				return 0, err
			}
		}
		bodyLen := int(c.header[3])<<8 | int(c.header[4])
		body := make([]byte, bodyLen)
		read := 0
		for read < bodyLen {
			n, err := c.Conn.Read(body[read:])
			read += n
			if err != nil {
				return 0, err
			}
		}
		c.hFill = 0
		c.rBuf = body
	}
	n := copy(p, c.rBuf)
	c.rBuf = c.rBuf[n:]
	return n, nil
}
