package sscrypto

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"math/rand"
	"testing"
)

// goldenCipherOutputs holds the SHA-256 of every output each generator
// below writes, taken before ChaCha20 moved to whole-block XOR and
// Poly1305 to 64-bit limbs. A kernel change must leave every byte as it
// was, so these hashes are never regenerated.
var goldenCipherOutputs = map[string]string{
	"chacha20-ietf-poly1305":  "6facb81b189f0fbbf1c85c379acf8851e5c0330642a620b7981f45d6a26853fd",
	"chacha20-ietf":           "571c20cfcff09f7aa02fdff680922283f9ca066cd81f5a78405c64e236da4db6",
	"chacha20":                "c98c1e356b3768ab9d89787d75fef24ee19dc20f05b460395490205a7c29b3e8",
	"xchacha20-ietf-poly1305": "a555325103df02bee937a8c68481c5f710cf3919a479a98f95b62a646c826162",
	"poly1305":                "3d4c701449c08637fda9ecd742dfd732640c8ac684b6b9772150abb78245434c",
}

// TestGoldenCipherOutputs hashes the outputs of every kernel the live
// stack runs over seeded random inputs and compares them with the
// pinned hashes:
//   - chacha20-ietf-poly1305 Seal for every plaintext length 0..1,100
//     with every AD length 0..40, one fresh AEAD per plaintext length;
//   - chacha20-ietf and legacy chacha20 XORKeyStream, in one call and in
//     random pieces of 1..200 bytes, from initial counters 0, 1 and
//     2³²−2, so the IETF counter's wrap to 0 and the legacy counter's
//     carry into word 13 are both hashed;
//   - xchacha20-ietf-poly1305 Seal for plaintext lengths 0..300;
//   - Poly1305 for message lengths 0..300.
//
// It then flips every bit of a sealed message's ciphertext, tag and AD
// at lengths around the ChaCha20 and Poly1305 block edges: each flip
// must fail Open and leave both dst and the input as they were.
func TestGoldenCipherOutputs(t *testing.T) {
	for _, g := range []struct {
		name  string
		write func(*rand.Rand, hash.Hash)
	}{
		{"chacha20-ietf-poly1305", goldenChaChaPoly},
		{"chacha20-ietf", func(rng *rand.Rand, h hash.Hash) { goldenStream(rng, h, ChaCha20NonceSizeIETF) }},
		{"chacha20", func(rng *rand.Rand, h hash.Hash) { goldenStream(rng, h, ChaCha20NonceSizeLegacy) }},
		{"xchacha20-ietf-poly1305", goldenXChaChaPoly},
		{"poly1305", goldenPoly1305},
	} {
		h := sha256.New()
		g.write(rand.New(rand.NewSource(1)), h)
		if got := hex.EncodeToString(h.Sum(nil)); got != goldenCipherOutputs[g.name] {
			t.Errorf("%s: outputs hash to %s, want %s", g.name, got, goldenCipherOutputs[g.name])
		}
	}

	rng := rand.New(rand.NewSource(2))
	a, err := NewChaCha20Poly1305(randBytes(rng, ChaCha20KeySize))
	if err != nil {
		t.Fatal(err)
	}
	nonce := randBytes(rng, ChaCha20NonceSizeIETF)
	for _, n := range []int{0, 15, 16, 63, 64, 65, 1400} {
		pt, ad := randBytes(rng, n), randBytes(rng, 21)
		sealed := a.Seal(nil, nonce, pt, ad)
		// Every bit of the ciphertext and tag, then every bit of the AD.
		for bit := 0; bit < 8*(len(sealed)+len(ad)); bit++ {
			ct, aad := bytes.Clone(sealed), bytes.Clone(ad)
			if i := bit / 8; i < len(ct) {
				ct[i] ^= 1 << (bit % 8)
			} else {
				aad[i-len(ct)] ^= 1 << (bit % 8)
			}
			flipped, flippedAD := bytes.Clone(ct), bytes.Clone(aad)
			dst := bytes.Repeat([]byte{0xa5}, 3+len(ct))
			before := bytes.Clone(dst)
			if _, err := a.Open(dst[:3], nonce, ct, aad); err != ErrAuthFailed {
				t.Fatalf("len %d: Open with bit %d flipped returned %v, want ErrAuthFailed", n, bit, err)
			}
			if !bytes.Equal(dst, before) {
				t.Fatalf("len %d: failed Open with bit %d flipped wrote to dst", n, bit)
			}
			if !bytes.Equal(ct, flipped) || !bytes.Equal(aad, flippedAD) {
				t.Fatalf("len %d: failed Open with bit %d flipped changed its input", n, bit)
			}
		}
	}
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func goldenChaChaPoly(rng *rand.Rand, h hash.Hash) {
	var out []byte
	for n := 0; n <= 1100; n++ {
		a, err := NewChaCha20Poly1305(randBytes(rng, ChaCha20KeySize))
		if err != nil {
			panic(err)
		}
		pt := randBytes(rng, n)
		for adLen := 0; adLen <= 40; adLen++ {
			nonce, ad := randBytes(rng, ChaCha20NonceSizeIETF), randBytes(rng, adLen)
			out = a.Seal(out[:0], nonce, pt, ad)
			h.Write(out)
		}
	}
}

func goldenStream(rng *rand.Rand, h hash.Hash, nonceSize int) {
	for _, counter := range []uint32{0, 1, 1<<32 - 2} {
		for trial := 0; trial < 4; trial++ {
			key, nonce := randBytes(rng, ChaCha20KeySize), randBytes(rng, nonceSize)
			src := randBytes(rng, 4096+rng.Intn(64))
			// One call, so that the counter wraps or carries inside a
			// run of whole blocks, then random pieces.
			for _, pieces := range []bool{false, true} {
				c, err := NewChaCha20WithCounter(key, nonce, counter)
				if err != nil {
					panic(err)
				}
				dst := make([]byte, len(src))
				for off := 0; off < len(src); {
					n := len(src) - off
					if pieces {
						n = min(1+rng.Intn(200), n)
					}
					c.XORKeyStream(dst[off:off+n], src[off:off+n])
					off += n
				}
				h.Write(dst)
			}
		}
	}
}

func goldenXChaChaPoly(rng *rand.Rand, h hash.Hash) {
	var out []byte
	for n := 0; n <= 300; n++ {
		a, err := NewXChaCha20Poly1305(randBytes(rng, ChaCha20KeySize))
		if err != nil {
			panic(err)
		}
		nonce, pt, ad := randBytes(rng, 24), randBytes(rng, n), randBytes(rng, n%17)
		out = a.Seal(out[:0], nonce, pt, ad)
		h.Write(out)
	}
}

func goldenPoly1305(rng *rand.Rand, h hash.Hash) {
	for n := 0; n <= 300; n++ {
		var key [32]byte
		rng.Read(key[:])
		var tag [Poly1305TagSize]byte
		Poly1305(&tag, randBytes(rng, n), &key)
		h.Write(tag[:])
	}
}
