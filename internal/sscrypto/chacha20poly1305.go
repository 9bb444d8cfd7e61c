package sscrypto

import (
	"crypto/subtle"
	"encoding/binary"
	"errors"
)

// ChaCha20Poly1305 implements the RFC 8439 AEAD as a cipher.AEAD. It is the
// cipher behind the Shadowsocks "chacha20-ietf-poly1305" method — the only
// AEAD method OutlineVPN supports.
//
// It holds only its key: Seal and Open keep their cipher and MAC state
// on the stack and MAC the AD and ciphertext where they lie, so they
// allocate nothing beyond growing dst, from the first call on.
type ChaCha20Poly1305 struct {
	key [ChaCha20KeySize]byte
}

// ErrAuthFailed is returned by Open when the Poly1305 tag does not verify.
// In Shadowsocks server terms this is the "authentication error" that, in
// older implementations, triggered an immediate RST (see Figure 10b of the
// paper).
var ErrAuthFailed = errors.New("sscrypto: message authentication failed")

// NewChaCha20Poly1305 returns an AEAD for the given 32-byte key.
func NewChaCha20Poly1305(key []byte) (*ChaCha20Poly1305, error) {
	if len(key) != ChaCha20KeySize {
		return nil, errChaChaParams
	}
	a := &ChaCha20Poly1305{}
	copy(a.key[:], key)
	return a, nil
}

// NonceSize implements cipher.AEAD.
func (*ChaCha20Poly1305) NonceSize() int { return ChaCha20NonceSizeIETF }

// Overhead implements cipher.AEAD.
func (*ChaCha20Poly1305) Overhead() int { return Poly1305TagSize }

// tag computes the RFC 8439 MAC for the given ciphertext and additional
// data under the one-time key derived from (key, nonce): the AD and the
// ciphertext, each padded to 16 bytes, then their two lengths.
func (a *ChaCha20Poly1305) tag(out *[16]byte, nonce, ciphertext, additionalData []byte) {
	var block [64]byte
	if err := chacha20Block64(a.key[:], nonce, 0, &block); err != nil {
		panic(err) // nonce length was validated by the caller
	}
	var p poly1305
	p.init((*[32]byte)(block[:32]))
	p.writePadded(additionalData)
	p.writePadded(ciphertext)
	var lengths [16]byte
	binary.LittleEndian.PutUint64(lengths[0:], uint64(len(additionalData)))
	binary.LittleEndian.PutUint64(lengths[8:], uint64(len(ciphertext)))
	p.blocks(lengths[:], 1)
	p.sum(out)
}

// Seal implements cipher.AEAD: it encrypts plaintext, appends the result
// and a 16-byte tag to dst, and returns the extended slice.
//
//sslab:hotpath
func (a *ChaCha20Poly1305) Seal(dst, nonce, plaintext, additionalData []byte) []byte {
	if len(nonce) != ChaCha20NonceSizeIETF {
		panic("sscrypto: bad nonce length for chacha20-poly1305")
	}
	// Grow dst without zero-filling so in-place encryption via
	// Seal(plaintext[:0], ...) works.
	off := len(dst)
	if total := off + len(plaintext) + Poly1305TagSize; cap(dst) >= total {
		dst = dst[:total]
	} else {
		grown := make([]byte, total)
		copy(grown, dst)
		dst = grown
	}
	ct := dst[off : off+len(plaintext)]

	var s ChaCha20 // stack-allocated: Seal itself must not heap-allocate
	if err := initChaCha20(&s, a.key[:], nonce, 1); err != nil {
		panic(err)
	}
	s.XORKeyStream(ct, plaintext)

	var t [16]byte
	a.tag(&t, nonce, ct, additionalData)
	copy(dst[off+len(plaintext):], t[:])
	return dst
}

// Open implements cipher.AEAD: it verifies the tag and decrypts. On
// authentication failure it returns ErrAuthFailed and leaves dst unchanged.
//
//sslab:hotpath
func (a *ChaCha20Poly1305) Open(dst, nonce, ciphertext, additionalData []byte) ([]byte, error) {
	if len(nonce) != ChaCha20NonceSizeIETF {
		return nil, errChaChaParams
	}
	if len(ciphertext) < Poly1305TagSize {
		return nil, ErrAuthFailed
	}
	ct := ciphertext[:len(ciphertext)-Poly1305TagSize]
	want := ciphertext[len(ciphertext)-Poly1305TagSize:]

	var t [16]byte
	a.tag(&t, nonce, ct, additionalData)
	if subtle.ConstantTimeCompare(t[:], want) != 1 {
		return nil, ErrAuthFailed
	}

	// Grow dst without zero-filling: callers conventionally pass
	// ciphertext[:0] as dst, and zeroing would destroy ct before the XOR.
	off := len(dst)
	if total := off + len(ct); cap(dst) >= total {
		dst = dst[:total]
	} else {
		grown := make([]byte, total)
		copy(grown, dst)
		dst = grown
	}
	var s ChaCha20 // stack-allocated: Open itself must not heap-allocate
	if err := initChaCha20(&s, a.key[:], nonce, 1); err != nil {
		return nil, err
	}
	s.XORKeyStream(dst[off:], ct)
	return dst, nil
}
