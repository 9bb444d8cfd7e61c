package ssproto

import (
	"crypto/cipher"
	"errors"
	"fmt"
	"io"
	"net"

	"sslab/internal/sscrypto"
)

// ErrAuth is returned when an AEAD chunk fails authentication. How a server
// reacts to this error — immediate RST in Shadowsocks-libev ≤ v3.2.5 and
// OutlineVPN v1.0.6, silent timeout in later versions — is one of the
// fingerprints Figure 10b documents.
var ErrAuth = errors.New("ssproto: chunk authentication failed")

// aeadConn implements the AEAD construction. Each direction derives a
// session subkey from the master key and that direction's salt via
// HKDF-SHA1("ss-subkey") and carries length-prefixed, individually
// authenticated chunks. The chunk nonce is a little-endian counter
// incremented after every seal/open.
type aeadConn struct {
	net.Conn
	spec sscrypto.Spec
	key  []byte
	rand io.Reader

	wAEAD  cipher.AEAD
	rAEAD  cipher.AEAD
	wNonce []byte
	rNonce []byte

	rBuf   []byte  // decrypted bytes not yet returned to the caller
	rStore []byte  // backing array for rBuf, reused across chunks
	rHead  []byte  // scratch for [2-byte length][tag]
	rCT    []byte  // reused payload-ciphertext scratch
	wBuf   []byte  // reused wire-format scratch: steady-state writes don't allocate
	lenBuf [2]byte // chunk length prefix plaintext
}

func incrementNonce(n []byte) {
	for i := range n {
		n[i]++
		if n[i] != 0 {
			return
		}
	}
}

// Write seals p into one or more chunks. The first Write prepends the salt
// so that — like real implementations before OutlineVPN's July 2020 change —
// the first data-carrying packet is [salt][len|tag][payload|tag], giving
// the characteristic first-packet lengths the detector keys on.
//
//sslab:hotpath
func (c *aeadConn) Write(p []byte) (int, error) {
	out := c.wBuf[:0]
	if c.wAEAD == nil {
		salt := make([]byte, c.spec.SaltSize())
		if _, err := io.ReadFull(c.rand, salt); err != nil {
			return 0, err
		}
		aead, err := c.spec.NewAEAD(sscrypto.SessionSubkey(c.key, salt))
		if err != nil {
			return 0, err
		}
		c.wAEAD = aead
		c.wNonce = make([]byte, aead.NonceSize())
		// Size the first flight's buffer for all of it, so it is not
		// regrown chunk by chunk.
		chunks := (len(p) + MaxChunkPayload - 1) / MaxChunkPayload
		out = make([]byte, len(salt), len(salt)+len(p)+chunks*(2+2*aead.Overhead()))
		copy(out, salt)
	}
	total := 0
	for len(p) > 0 {
		chunk := p
		if len(chunk) > MaxChunkPayload {
			chunk = chunk[:MaxChunkPayload]
		}
		p = p[len(chunk):]

		c.lenBuf[0], c.lenBuf[1] = byte(len(chunk)>>8), byte(len(chunk))
		out = c.wAEAD.Seal(out, c.wNonce, c.lenBuf[:], nil)
		incrementNonce(c.wNonce)
		out = c.wAEAD.Seal(out, c.wNonce, chunk, nil)
		incrementNonce(c.wNonce)
		total += len(chunk)
	}
	c.wBuf = out[:0] // keep the grown capacity for the next write
	if _, err := c.Conn.Write(out); err != nil {
		return 0, err
	}
	return total, nil
}

// Read returns decrypted payload bytes, reading and opening whole chunks
// as needed.
func (c *aeadConn) Read(p []byte) (int, error) {
	if len(c.rBuf) > 0 {
		n := copy(p, c.rBuf)
		c.rBuf = c.rBuf[n:]
		return n, nil
	}
	if c.rAEAD == nil {
		salt := make([]byte, c.spec.SaltSize())
		if _, err := io.ReadFull(c.Conn, salt); err != nil {
			return 0, err
		}
		aead, err := c.spec.NewAEAD(sscrypto.SessionSubkey(c.key, salt))
		if err != nil {
			return 0, err
		}
		c.rAEAD = aead
		c.rNonce = make([]byte, aead.NonceSize())
		c.rHead = make([]byte, 2+aead.Overhead())
	}

	// Read and open the encrypted length prefix.
	if _, err := io.ReadFull(c.Conn, c.rHead); err != nil {
		return 0, err
	}
	lenPlain, err := c.rAEAD.Open(c.rHead[:0:2], c.rNonce, c.rHead, nil)
	if err != nil {
		return 0, fmt.Errorf("%w: length prefix", ErrAuth)
	}
	incrementNonce(c.rNonce)
	n := int(lenPlain[0])<<8 | int(lenPlain[1])
	if n > MaxChunkPayload {
		return 0, fmt.Errorf("%w: oversized chunk length %d", ErrAuth, n)
	}

	// Read and open the payload into the reused ciphertext scratch
	// (Open decrypts in place over ct's storage).
	if cap(c.rCT) < n+c.rAEAD.Overhead() {
		c.rCT = make([]byte, n+c.rAEAD.Overhead())
	}
	ct := c.rCT[:n+c.rAEAD.Overhead()]
	if _, err := io.ReadFull(c.Conn, ct); err != nil {
		return 0, err
	}
	plain, err := c.rAEAD.Open(ct[:0], c.rNonce, ct, nil)
	if err != nil {
		return 0, fmt.Errorf("%w: payload", ErrAuth)
	}
	incrementNonce(c.rNonce)

	// Leftover plaintext is copied to the front of the reused backing
	// store (slicing rBuf forward on the drain path would otherwise
	// bleed capacity until a reallocation).
	copied := copy(p, plain)
	c.rStore = append(c.rStore[:0], plain[copied:]...)
	c.rBuf = c.rStore
	return copied, nil
}
