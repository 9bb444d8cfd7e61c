package sscrypto

import (
	"bytes"
	"crypto/cipher"
	"testing"
	"testing/quick"
)

// TestChaCha20Poly1305RFC8439 checks Seal against the RFC 8439 §2.8.2
// AEAD test vector.
func TestChaCha20Poly1305RFC8439(t *testing.T) {
	key := unhex(t, "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f")
	nonce := unhex(t, "070000004041424344454647")
	aad := unhex(t, "50515253c0c1c2c3c4c5c6c7")
	plaintext := []byte("Ladies and Gentlemen of the class of '99: If I could offer you " +
		"only one tip for the future, sunscreen would be it.")
	wantCT := unhex(t, "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6"+
		"3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36"+
		"92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc"+
		"3ff4def08e4b7a9de576d26586cec64b6116")
	wantTag := unhex(t, "1ae10b594f09e26a7e902ecbd0600691")

	a, err := NewChaCha20Poly1305(key)
	if err != nil {
		t.Fatal(err)
	}
	out := a.Seal(nil, nonce, plaintext, aad)
	if got := out[:len(plaintext)]; !bytes.Equal(got, wantCT) {
		t.Errorf("ciphertext mismatch:\n got %x\nwant %x", got, wantCT)
	}
	if got := out[len(plaintext):]; !bytes.Equal(got, wantTag) {
		t.Errorf("tag mismatch:\n got %x\nwant %x", got, wantTag)
	}

	pt, err := a.Open(nil, nonce, out, aad)
	if err != nil {
		t.Fatalf("Open of valid message failed: %v", err)
	}
	if !bytes.Equal(pt, plaintext) {
		t.Error("Open did not recover the plaintext")
	}
}

// TestChaCha20Poly1305Tamper verifies every single-bit corruption of the
// message or AAD is rejected.
func TestChaCha20Poly1305Tamper(t *testing.T) {
	key := make([]byte, 32)
	nonce := make([]byte, 12)
	aad := []byte{1, 2, 3}
	a, _ := NewChaCha20Poly1305(key)
	msg := []byte("short but meaningful")
	ct := a.Seal(nil, nonce, msg, aad)

	for i := range ct {
		bad := append([]byte(nil), ct...)
		bad[i] ^= 0x80
		if _, err := a.Open(nil, nonce, bad, aad); err == nil {
			t.Fatalf("corruption at ciphertext byte %d accepted", i)
		}
	}
	if _, err := a.Open(nil, nonce, ct, []byte{1, 2, 4}); err == nil {
		t.Error("corrupted AAD accepted")
	}
	if _, err := a.Open(nil, nonce, ct[:10], aad); err == nil {
		t.Error("truncated ciphertext accepted")
	}
	if _, err := a.Open(nil, make([]byte, 12+1), ct, aad); err == nil {
		t.Error("bad nonce length accepted")
	}
}

// TestChaCha20Poly1305RoundTrip is the seal/open property test.
func TestChaCha20Poly1305RoundTrip(t *testing.T) {
	key := make([]byte, 32)
	key[0] = 0x42
	a, _ := NewChaCha20Poly1305(key)
	f := func(nonceSeed uint32, msg, aad []byte) bool {
		nonce := make([]byte, 12)
		nonce[0], nonce[1], nonce[2], nonce[3] = byte(nonceSeed), byte(nonceSeed>>8), byte(nonceSeed>>16), byte(nonceSeed>>24)
		ct := a.Seal(nil, nonce, msg, aad)
		if len(ct) != len(msg)+a.Overhead() {
			return false
		}
		pt, err := a.Open(nil, nonce, ct, aad)
		return err == nil && bytes.Equal(pt, msg)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSealAppends verifies Seal appends to dst rather than clobbering it,
// matching cipher.AEAD semantics the ssproto codec relies on.
func TestSealAppends(t *testing.T) {
	a, _ := NewChaCha20Poly1305(make([]byte, 32))
	prefix := []byte("prefix")
	out := a.Seal(append([]byte(nil), prefix...), make([]byte, 12), []byte("x"), nil)
	if !bytes.HasPrefix(out, prefix) {
		t.Error("Seal clobbered dst prefix")
	}
	if len(out) != len(prefix)+1+16 {
		t.Errorf("unexpected sealed length %d", len(out))
	}
}

// TestInPlaceOpenAndSeal covers the conventional aliasing patterns
// Open(ciphertext[:0], ...) and Seal(plaintext[:0], ...): growing dst must
// not zero the aliased input (regression test for a real bug).
func TestInPlaceOpenAndSeal(t *testing.T) {
	a, _ := NewChaCha20Poly1305(make([]byte, 32))
	nonce := make([]byte, 12)
	msg := []byte("length prefix \x00\x27 and payload bytes")

	ct := a.Seal(nil, nonce, msg, nil)
	pt, err := a.Open(ct[:0], nonce, ct, nil)
	if err != nil {
		t.Fatalf("in-place Open: %v", err)
	}
	if !bytes.Equal(pt, msg) {
		t.Fatalf("in-place Open corrupted plaintext: %q", pt)
	}

	buf := make([]byte, len(msg), len(msg)+16)
	copy(buf, msg)
	ct2 := a.Seal(buf[:0], nonce, buf, nil)
	pt2, err := a.Open(nil, nonce, ct2, nil)
	if err != nil || !bytes.Equal(pt2, msg) {
		t.Fatalf("in-place Seal broke round trip: %v", err)
	}
}

func BenchmarkChaCha20Poly1305Seal(b *testing.B) {
	a, _ := NewChaCha20Poly1305(make([]byte, 32))
	nonce := make([]byte, 12)
	msg := make([]byte, 1024)
	dst := make([]byte, 0, len(msg)+16)
	b.SetBytes(int64(len(msg)))
	for i := 0; i < b.N; i++ {
		dst = a.Seal(dst[:0], nonce, msg, nil)
	}
}

// TestSealOpenAllocFree pins the per-chunk AEAD primitives at zero heap
// allocations when the caller reuses its destination buffer — the shape
// every relay loop in ssproto and ssserver uses — for a warmed AEAD, for
// a fresh AEAD's first call (each connection derives two) and for the
// xchacha method.
func TestSealOpenAllocFree(t *testing.T) {
	const runs = 200
	key := make([]byte, ChaCha20KeySize)
	msg := make([]byte, 1400)
	dst := make([]byte, 0, len(msg)+Poly1305TagSize)
	pt := make([]byte, 0, len(msg))

	chacha, err := NewChaCha20Poly1305(key)
	if err != nil {
		t.Fatal(err)
	}
	xchacha, err := NewXChaCha20Poly1305(key)
	if err != nil {
		t.Fatal(err)
	}
	// AllocsPerRun calls its function once more than runs.
	fresh := make([]*ChaCha20Poly1305, 2*(runs+1))
	for i := range fresh {
		if fresh[i], err = NewChaCha20Poly1305(key); err != nil {
			t.Fatal(err)
		}
	}
	next := func() cipher.AEAD {
		a := fresh[0]
		fresh = fresh[1:]
		return a
	}
	for _, tc := range []struct {
		name   string
		sealer cipher.AEAD        // seals the message Open is timed on
		aead   func() cipher.AEAD // the AEAD each timed call runs on
	}{
		{"chacha20-ietf-poly1305", chacha, func() cipher.AEAD { return chacha }},
		{"chacha20-ietf-poly1305 first call", chacha, next},
		{"xchacha20-ietf-poly1305", xchacha, func() cipher.AEAD { return xchacha }},
	} {
		nonce := make([]byte, tc.sealer.NonceSize())
		ct := tc.sealer.Seal(nil, nonce, msg, nil)
		if allocs := testing.AllocsPerRun(runs, func() {
			dst = tc.aead().Seal(dst[:0], nonce, msg, nil)
		}); allocs != 0 {
			t.Errorf("%s: Seal with reused dst allocates %.1f times per call, want 0", tc.name, allocs)
		}
		if allocs := testing.AllocsPerRun(runs, func() {
			var err error
			pt, err = tc.aead().Open(pt[:0], nonce, ct, nil)
			if err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: Open with reused dst allocates %.1f times per call, want 0", tc.name, allocs)
		}
	}
}
