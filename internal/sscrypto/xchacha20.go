package sscrypto

import "encoding/binary"

// HChaCha20 derives a 32-byte subkey from a key and a 16-byte nonce by
// running the ChaCha20 rounds without the final state addition and taking
// the first and last four words — the nonce-extension primitive behind
// XChaCha20 (draft-irtf-cfrg-xchacha).
func HChaCha20(key, nonce []byte) ([]byte, error) {
	if len(key) != ChaCha20KeySize || len(nonce) != 16 {
		return nil, errChaChaParams
	}
	var out [32]byte
	hChaCha20(&out, key, nonce)
	return out[:], nil
}

// hChaCha20 is HChaCha20 into an array, for a 32-byte key and a 16-byte
// nonce.
func hChaCha20(out *[32]byte, key, nonce []byte) {
	var x [16]uint32
	x[0] = 0x61707865
	x[1] = 0x3320646e
	x[2] = 0x79622d32
	x[3] = 0x6b206574
	for i := 0; i < 8; i++ {
		x[4+i] = binary.LittleEndian.Uint32(key[4*i:])
	}
	for i := 0; i < 4; i++ {
		x[12+i] = binary.LittleEndian.Uint32(nonce[4*i:])
	}
	for i := 0; i < 10; i++ {
		x[0], x[4], x[8], x[12] = quarterRound(x[0], x[4], x[8], x[12])
		x[1], x[5], x[9], x[13] = quarterRound(x[1], x[5], x[9], x[13])
		x[2], x[6], x[10], x[14] = quarterRound(x[2], x[6], x[10], x[14])
		x[3], x[7], x[11], x[15] = quarterRound(x[3], x[7], x[11], x[15])
		x[0], x[5], x[10], x[15] = quarterRound(x[0], x[5], x[10], x[15])
		x[1], x[6], x[11], x[12] = quarterRound(x[1], x[6], x[11], x[12])
		x[2], x[7], x[8], x[13] = quarterRound(x[2], x[7], x[8], x[13])
		x[3], x[4], x[9], x[14] = quarterRound(x[3], x[4], x[9], x[14])
	}
	for i := 0; i < 4; i++ {
		binary.LittleEndian.PutUint32(out[4*i:], x[i])
		binary.LittleEndian.PutUint32(out[16+4*i:], x[12+i])
	}
}

// XChaCha20Poly1305 is the 24-byte-nonce AEAD: HChaCha20 folds the first
// 16 nonce bytes into a subkey, then standard ChaCha20-Poly1305 runs with
// a nonce of 4 zero bytes plus the remaining 8. Shadowsocks-libev exposes
// this as "xchacha20-ietf-poly1305".
type XChaCha20Poly1305 struct {
	key [ChaCha20KeySize]byte
}

// NewXChaCha20Poly1305 returns an AEAD for the given 32-byte key.
func NewXChaCha20Poly1305(key []byte) (*XChaCha20Poly1305, error) {
	if len(key) != ChaCha20KeySize {
		return nil, errChaChaParams
	}
	a := &XChaCha20Poly1305{}
	copy(a.key[:], key)
	return a, nil
}

// NonceSize implements cipher.AEAD.
func (*XChaCha20Poly1305) NonceSize() int { return 24 }

// Overhead implements cipher.AEAD.
func (*XChaCha20Poly1305) Overhead() int { return Poly1305TagSize }

// inner returns the per-nonce ChaCha20-Poly1305 and its 12-byte nonce
// by value, so that neither leaves the caller's stack.
func (a *XChaCha20Poly1305) inner(nonce []byte) (inner ChaCha20Poly1305, n12 [12]byte, err error) {
	if len(nonce) != 24 {
		return inner, n12, errChaChaParams
	}
	hChaCha20(&inner.key, a.key[:], nonce[:16])
	copy(n12[4:], nonce[16:])
	return inner, n12, nil
}

// Seal implements cipher.AEAD.
func (a *XChaCha20Poly1305) Seal(dst, nonce, plaintext, additionalData []byte) []byte {
	inner, n12, err := a.inner(nonce)
	if err != nil {
		panic("sscrypto: bad nonce length for xchacha20-poly1305")
	}
	return inner.Seal(dst, n12[:], plaintext, additionalData)
}

// Open implements cipher.AEAD.
func (a *XChaCha20Poly1305) Open(dst, nonce, ciphertext, additionalData []byte) ([]byte, error) {
	inner, n12, err := a.inner(nonce)
	if err != nil {
		return nil, err
	}
	return inner.Open(dst, n12[:], ciphertext, additionalData)
}
