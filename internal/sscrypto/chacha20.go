// Package sscrypto implements the cryptographic primitives Shadowsocks
// depends on that are not available in the Go standard library: ChaCha20
// (both the RFC 8439 IETF variant with a 12-byte nonce and the original
// variant with an 8-byte nonce), Poly1305, the combined ChaCha20-Poly1305
// AEAD, HKDF-SHA1 (the KDF the Shadowsocks AEAD construction uses to derive
// per-session subkeys), and OpenSSL's EVP_BytesToKey password KDF.
//
// It also provides the cipher registry that maps Shadowsocks method names
// such as "aes-256-gcm" or "chacha20-ietf-poly1305" to key sizes, IV/salt
// sizes and constructors, mirroring the method tables of the Shadowsocks
// whitepaper.
package sscrypto

import (
	"encoding/binary"
	"errors"
	"math/bits"
)

// ChaCha20KeySize is the key size of every ChaCha20 variant, in bytes.
const ChaCha20KeySize = 32

// ChaCha20NonceSizeIETF is the nonce size of the RFC 8439 variant.
const ChaCha20NonceSizeIETF = 12

// ChaCha20NonceSizeLegacy is the nonce size of the original DJB variant
// (used by the Shadowsocks "chacha20" stream method, which has an 8-byte IV).
const ChaCha20NonceSizeLegacy = 8

var errChaChaParams = errors.New("sscrypto: bad ChaCha20 key or nonce length")

// ChaCha20 is a streaming ChaCha20 cipher implementing XOR of an arbitrary
// length keystream. It supports both the IETF (12-byte nonce, 32-bit
// counter) and legacy (8-byte nonce, 64-bit counter) variants.
type ChaCha20 struct {
	state   [16]uint32 // input block: constants, key, counter, nonce
	buf     [64]byte   // the last partial block; bytes from bufUsed on are keystream
	bufUsed int        // bytes of buf already consumed; 64 means empty
	legacy  bool       // 64-bit counter variant
}

// NewChaCha20 returns a ChaCha20 stream for the given 32-byte key and a
// 12-byte (IETF) or 8-byte (legacy) nonce. The counter starts at zero.
func NewChaCha20(key, nonce []byte) (*ChaCha20, error) {
	return NewChaCha20WithCounter(key, nonce, 0)
}

// NewChaCha20WithCounter is NewChaCha20 with an explicit initial block
// counter, as needed by the RFC 8439 AEAD construction (counter 1 for the
// body, counter 0 for the one-time Poly1305 key).
func NewChaCha20WithCounter(key, nonce []byte, counter uint32) (*ChaCha20, error) {
	c := &ChaCha20{}
	if err := initChaCha20(c, key, nonce, counter); err != nil {
		return nil, err
	}
	return c, nil
}

// initChaCha20 initializes c in place for (key, nonce, counter). The AEAD
// hot path uses it with stack-allocated ChaCha20 values so that sealing
// or opening a chunk performs no heap allocation.
func initChaCha20(c *ChaCha20, key, nonce []byte, counter uint32) error {
	if len(key) != ChaCha20KeySize {
		return errChaChaParams
	}
	*c = ChaCha20{bufUsed: 64}
	c.state[0] = 0x61707865
	c.state[1] = 0x3320646e
	c.state[2] = 0x79622d32
	c.state[3] = 0x6b206574
	for i := 0; i < 8; i++ {
		c.state[4+i] = binary.LittleEndian.Uint32(key[4*i:])
	}
	switch len(nonce) {
	case ChaCha20NonceSizeIETF:
		c.state[12] = counter
		c.state[13] = binary.LittleEndian.Uint32(nonce[0:])
		c.state[14] = binary.LittleEndian.Uint32(nonce[4:])
		c.state[15] = binary.LittleEndian.Uint32(nonce[8:])
	case ChaCha20NonceSizeLegacy:
		c.legacy = true
		c.state[12] = counter
		c.state[13] = 0
		c.state[14] = binary.LittleEndian.Uint32(nonce[0:])
		c.state[15] = binary.LittleEndian.Uint32(nonce[4:])
	default:
		return errChaChaParams
	}
	return nil
}

func quarterRound(a, b, c, d uint32) (uint32, uint32, uint32, uint32) {
	a += b
	d = bits.RotateLeft32(d^a, 16)
	c += d
	b = bits.RotateLeft32(b^c, 12)
	a += b
	d = bits.RotateLeft32(d^a, 8)
	c += d
	b = bits.RotateLeft32(b^c, 7)
	return a, b, c, d
}

// xorBlocks XORs the keystream into the whole 64-byte blocks of src,
// writing dst, and advances the block counter past them; a trailing
// partial block is left alone. It is the one ChaCha20 block function:
// XORKeyStream's tail and the Poly1305 key block run it over a zeroed
// block. The state lives in locals and each block is XORed four bytes
// at a time.
func (c *ChaCha20) xorBlocks(dst, src []byte) {
	c0, c1, c2, c3 := c.state[0], c.state[1], c.state[2], c.state[3]
	c4, c5, c6, c7 := c.state[4], c.state[5], c.state[6], c.state[7]
	c8, c9, c10, c11 := c.state[8], c.state[9], c.state[10], c.state[11]
	c12, c13, c14, c15 := c.state[12], c.state[13], c.state[14], c.state[15]

	// Three of the first round's four column quarter-rounds do not read
	// the block counter (word 12), so they are computed once per call.
	// Column 1 reads word 13, which the legacy counter carries into: a
	// carry recomputes it.
	p1, p5, p9, p13 := quarterRound(c1, c5, c9, c13)
	p2, p6, p10, p14 := quarterRound(c2, c6, c10, c14)
	p3, p7, p11, p15 := quarterRound(c3, c7, c11, c15)

	for len(src) >= 64 && len(dst) >= 64 {
		s, d := (*[64]byte)(src), (*[64]byte)(dst)

		// The rest of the first column round, then its diagonal round.
		p0, p4, p8, p12 := quarterRound(c0, c4, c8, c12)
		x0, x5, x10, x15 := quarterRound(p0, p5, p10, p15)
		x1, x6, x11, x12 := quarterRound(p1, p6, p11, p12)
		x2, x7, x8, x13 := quarterRound(p2, p7, p8, p13)
		x3, x4, x9, x14 := quarterRound(p3, p4, p9, p14)

		// The other nine double rounds.
		for i := 0; i < 9; i++ {
			x0, x4, x8, x12 = quarterRound(x0, x4, x8, x12)
			x1, x5, x9, x13 = quarterRound(x1, x5, x9, x13)
			x2, x6, x10, x14 = quarterRound(x2, x6, x10, x14)
			x3, x7, x11, x15 = quarterRound(x3, x7, x11, x15)
			x0, x5, x10, x15 = quarterRound(x0, x5, x10, x15)
			x1, x6, x11, x12 = quarterRound(x1, x6, x11, x12)
			x2, x7, x8, x13 = quarterRound(x2, x7, x8, x13)
			x3, x4, x9, x14 = quarterRound(x3, x4, x9, x14)
		}

		xorWord(d, s, 0, x0+c0)
		xorWord(d, s, 4, x1+c1)
		xorWord(d, s, 8, x2+c2)
		xorWord(d, s, 12, x3+c3)
		xorWord(d, s, 16, x4+c4)
		xorWord(d, s, 20, x5+c5)
		xorWord(d, s, 24, x6+c6)
		xorWord(d, s, 28, x7+c7)
		xorWord(d, s, 32, x8+c8)
		xorWord(d, s, 36, x9+c9)
		xorWord(d, s, 40, x10+c10)
		xorWord(d, s, 44, x11+c11)
		xorWord(d, s, 48, x12+c12)
		xorWord(d, s, 52, x13+c13)
		xorWord(d, s, 56, x14+c14)
		xorWord(d, s, 60, x15+c15)

		// The IETF counter is 32 bits and wraps; the legacy one carries
		// into word 13.
		c12++
		if c12 == 0 && c.legacy {
			c13++
			p1, p5, p9, p13 = quarterRound(c1, c5, c9, c13)
		}
		src, dst = src[64:], dst[64:]
	}
	c.state[12], c.state[13] = c12, c13
}

// xorWord XORs the little-endian keystream word w into the four bytes
// of src at off, writing them to dst.
func xorWord(dst, src *[64]byte, off int, w uint32) {
	binary.LittleEndian.PutUint32(dst[off:], binary.LittleEndian.Uint32(src[off:])^w)
}

// XORKeyStream XORs src with the keystream into dst. dst and src must
// overlap entirely or not at all, and len(dst) must be >= len(src).
func (c *ChaCha20) XORKeyStream(dst, src []byte) {
	if len(dst) < len(src) {
		panic("sscrypto: chacha20 output smaller than input")
	}
	dst = dst[:len(src)]
	// First the keystream the previous call left in buf.
	if c.bufUsed < 64 && len(src) > 0 {
		n := min(64-c.bufUsed, len(src))
		for i, k := range c.buf[c.bufUsed : c.bufUsed+n] {
			dst[i] = src[i] ^ k
		}
		c.bufUsed += n
		dst, src = dst[n:], src[n:]
	}
	// Then the whole blocks, straight from src to dst.
	full := len(src) &^ 63
	if full > 0 {
		c.xorBlocks(dst[:full], src[:full])
	}
	// The tail goes through buf, which keeps the rest of its keystream
	// block for the next call.
	if tail := src[full:]; len(tail) > 0 {
		c.buf = [64]byte{}
		copy(c.buf[:], tail)
		c.xorBlocks(c.buf[:], c.buf[:])
		c.bufUsed = copy(dst[full:], c.buf[:])
	}
}

// chacha20Block64 writes one raw keystream block for (key, nonce, counter)
// into out. Used to derive the Poly1305 one-time key. The cipher state
// lives on the stack: nothing escapes.
func chacha20Block64(key, nonce []byte, counter uint32, out *[64]byte) error {
	var c ChaCha20
	if err := initChaCha20(&c, key, nonce, counter); err != nil {
		return err
	}
	*out = [64]byte{}
	c.xorBlocks(out[:], out[:])
	return nil
}
