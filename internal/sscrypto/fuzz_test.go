package sscrypto

import (
	"bytes"
	"testing"
)

// FuzzChaCha20Poly1305 checks the AEAD and the stream cipher under it on
// arbitrary keys, nonces, AD, plaintexts and split points:
//   - Open(Seal(x)) returns x;
//   - an in-place Seal equals an out-of-place one;
//   - changing one byte of the sealed message or the AD fails Open;
//   - XORKeyStream over three pieces, in place, equals one call, for the
//     12-byte and the 8-byte nonce and any initial counter.
//
// The key and nonce bytes are zero-padded or cut to their sizes.
func FuzzChaCha20Poly1305(f *testing.F) {
	f.Add([]byte("key"), []byte("nonce"), []byte("ad"), []byte("plaintext"), uint16(1), uint16(5), uint32(0), uint16(3))
	f.Add([]byte{}, []byte{}, []byte{}, []byte{}, uint16(0), uint16(0), uint32(1), uint16(0))
	f.Add(bytes.Repeat([]byte{0xff}, 40), []byte("twelve-bytes"), bytes.Repeat([]byte{7}, 17),
		bytes.Repeat([]byte{0x5a}, 300), uint16(63), uint16(65), uint32(1<<32-2), uint16(0x1234))
	f.Fuzz(func(t *testing.T, keyBytes, nonceBytes, ad, pt []byte, split1, split2 uint16, counter uint32, change uint16) {
		var key [ChaCha20KeySize]byte
		var nonce [ChaCha20NonceSizeIETF]byte
		copy(key[:], keyBytes)
		copy(nonce[:], nonceBytes)
		a, err := NewChaCha20Poly1305(key[:])
		if err != nil {
			t.Fatal(err)
		}

		sealed := a.Seal(nil, nonce[:], pt, ad)
		if opened, err := a.Open(nil, nonce[:], sealed, ad); err != nil || !bytes.Equal(opened, pt) {
			t.Fatalf("Open(Seal(x)) = %x, %v; want x = %x", opened, err, pt)
		}
		buf := make([]byte, len(pt), len(pt)+Poly1305TagSize)
		copy(buf, pt)
		if inPlace := a.Seal(buf[:0], nonce[:], buf, ad); !bytes.Equal(inPlace, sealed) {
			t.Fatalf("in-place Seal = %x, out-of-place %x", inPlace, sealed)
		}

		// Change one byte of the sealed message or of the AD.
		bad, badAD := bytes.Clone(sealed), bytes.Clone(ad)
		if i := int(change) % (len(bad) + len(badAD)); i < len(bad) {
			bad[i] ^= byte(change>>8) | 1
		} else {
			badAD[i-len(bad)] ^= byte(change>>8) | 1
		}
		if _, err := a.Open(nil, nonce[:], bad, badAD); err != ErrAuthFailed {
			t.Fatalf("Open of a changed message returned %v, want ErrAuthFailed", err)
		}

		s1 := min(int(split1), len(pt))
		s2 := min(s1+int(split2), len(pt))
		for _, n := range []int{ChaCha20NonceSizeIETF, ChaCha20NonceSizeLegacy} {
			whole, err := NewChaCha20WithCounter(key[:], nonce[:n], counter)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]byte, len(pt))
			whole.XORKeyStream(want, pt)

			pieces, err := NewChaCha20WithCounter(key[:], nonce[:n], counter)
			if err != nil {
				t.Fatal(err)
			}
			got := bytes.Clone(pt)
			for _, r := range [][2]int{{0, s1}, {s1, s2}, {s2, len(pt)}} {
				pieces.XORKeyStream(got[r[0]:r[1]], got[r[0]:r[1]])
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%d-byte nonce, counter %d: XORKeyStream split at %d and %d differs from one call", n, counter, s1, s2)
			}
		}
	})
}
