package ssproto

import (
	"crypto/cipher"
	"io"
	"net"

	"sslab/internal/sscrypto"
)

// streamConn implements the stream-cipher construction. Each direction is
// one long ciphertext preceded by that direction's IV. There is no
// integrity protection: flipping a ciphertext bit flips the corresponding
// plaintext bit, which is what makes the byte-changed replay probes of
// §3.2 (types R2–R5) informative against stream-cipher servers.
type streamConn struct {
	net.Conn
	spec sscrypto.Spec
	key  []byte
	rand io.Reader

	wStream cipher.Stream
	rStream cipher.Stream

	wBuf []byte // reused ciphertext scratch: steady-state writes don't allocate
}

// Write encrypts p and writes it; the first Write also generates and
// prepends this direction's IV in the same segment, so the first
// data-carrying packet on the wire is [IV][ciphertext] — the packet whose
// length and entropy the GFW's passive detector inspects.
//
//sslab:hotpath
func (c *streamConn) Write(p []byte) (int, error) {
	if c.wStream == nil {
		iv := make([]byte, c.spec.IVSize)
		if _, err := io.ReadFull(c.rand, iv); err != nil {
			return 0, err
		}
		s, err := c.spec.NewStream(c.key, iv)
		if err != nil {
			return 0, err
		}
		c.wStream = s
		buf := c.scratch(len(iv) + len(p))
		copy(buf, iv)
		c.wStream.XORKeyStream(buf[len(iv):], p)
		if _, err := c.Conn.Write(buf); err != nil {
			return 0, err
		}
		return len(p), nil
	}
	buf := c.scratch(len(p))
	c.wStream.XORKeyStream(buf, p)
	if _, err := c.Conn.Write(buf); err != nil {
		return 0, err
	}
	return len(p), nil
}

// scratch returns the write buffer resized to n, growing it only when a
// larger write than any before comes through.
func (c *streamConn) scratch(n int) []byte {
	if cap(c.wBuf) < n {
		c.wBuf = make([]byte, n)
	}
	return c.wBuf[:n]
}

// Read decrypts into p; the first Read consumes the peer's IV.
//
//sslab:hotpath
func (c *streamConn) Read(p []byte) (int, error) {
	if c.rStream == nil {
		iv := make([]byte, c.spec.IVSize)
		if _, err := io.ReadFull(c.Conn, iv); err != nil {
			return 0, err
		}
		s, err := c.spec.NewStreamDecrypter(c.key, iv)
		if err != nil {
			return 0, err
		}
		c.rStream = s
	}
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.rStream.XORKeyStream(p[:n], p[:n])
	}
	return n, err
}
