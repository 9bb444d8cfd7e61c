package sscrypto

import (
	"bytes"
	"crypto/md5"
	"testing"
)

// TestHKDFSHA1RFC5869 checks HKDF-SHA1 against RFC 5869 test case 4.
func TestHKDFSHA1RFC5869(t *testing.T) {
	ikm := unhex(t, "0b0b0b0b0b0b0b0b0b0b0b")
	salt := unhex(t, "000102030405060708090a0b0c")
	info := unhex(t, "f0f1f2f3f4f5f6f7f8f9")
	want := unhex(t, "085a01ea1b10f36933068b56efa5ad81"+
		"a4f14b822f5b091568a9cdd4f155fda2"+
		"c22e422478d305f3f896")
	got, err := HKDFSHA1(ikm, salt, info, len(want))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("OKM mismatch:\n got %x\nwant %x", got, want)
	}
}

// TestHKDFSHA1RFC5869NoSalt checks test case 6 (zero-length salt).
func TestHKDFSHA1RFC5869NoSalt(t *testing.T) {
	ikm := unhex(t, "0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b")
	want := unhex(t, "0ac1af7002b3d761d1e55298da9d0506"+
		"b9ae52057220a306e07b6b87e8df21d0"+
		"ea00033de03984d34918")
	got, err := HKDFSHA1(ikm, nil, nil, len(want))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("OKM mismatch:\n got %x\nwant %x", got, want)
	}
}

// TestHKDFSHA1RFC5869LongInputs checks test case 5: an 80-byte salt,
// longer than a SHA-1 block, is hashed down to the HMAC key, and the
// 82-byte output spans five expand steps.
func TestHKDFSHA1RFC5869LongInputs(t *testing.T) {
	seq := func(first byte) []byte {
		b := make([]byte, 80)
		for i := range b {
			b[i] = first + byte(i)
		}
		return b
	}
	want := unhex(t, "0bd770a74d1160f7c9f12cd5912a06eb"+
		"ff6adcae899d92191fe4305673ba2ffe"+
		"8fa3f1a4e5ad79f3f334b3b202b2173c"+
		"486ea37ce3d397ed034c7f9dfeb15c5e"+
		"927336d0441f4c4300e2cff0d0900b52"+
		"d3b4")
	got, err := HKDFSHA1(seq(0x00), seq(0x60), seq(0xb0), len(want))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("OKM mismatch:\n got %x\nwant %x", got, want)
	}
}

func TestHKDFSHA1BadLength(t *testing.T) {
	if _, err := HKDFSHA1([]byte("x"), nil, nil, 0); err == nil {
		t.Error("zero length accepted")
	}
	if _, err := HKDFSHA1([]byte("x"), nil, nil, 256*20); err == nil {
		t.Error("over-long output accepted")
	}
}

// TestEVPBytesToKey checks the OpenSSL-compatible derivation against an
// independent per-test reimplementation.
func TestEVPBytesToKey(t *testing.T) {
	for _, tc := range []struct {
		password string
		keyLen   int
	}{
		{"foobar", 16},
		{"foobar", 32},
		{"barfoo!", 24},
		{"", 16},
		{"a much longer password with spaces and symbols !@#$", 32},
	} {
		got := EVPBytesToKey(tc.password, tc.keyLen)
		// Reference: D1 = MD5(pw), Dn = MD5(D(n-1) || pw).
		var want, prev []byte
		for len(want) < tc.keyLen {
			h := md5.New()
			h.Write(prev)
			h.Write([]byte(tc.password))
			prev = h.Sum(nil)
			want = append(want, prev...)
		}
		want = want[:tc.keyLen]
		if !bytes.Equal(got, want) {
			t.Errorf("EVPBytesToKey(%q, %d) = %x, want %x", tc.password, tc.keyLen, got, want)
		}
	}
}

// TestEVPBytesToKeyKnown pins one absolute value so the reference
// implementation above cannot drift in tandem with the real one.
func TestEVPBytesToKeyKnown(t *testing.T) {
	got := EVPBytesToKey("foobar", 16)
	want := unhex(t, "3858f62230ac3c915f300c664312c63f") // MD5("foobar")
	if !bytes.Equal(got, want) {
		t.Errorf("EVPBytesToKey(foobar, 16) = %x, want %x", got, want)
	}
}

// TestSessionSubkey verifies subkeys differ per salt and have key length.
func TestSessionSubkey(t *testing.T) {
	master := EVPBytesToKey("secret", 32)
	s1 := SessionSubkey(master, []byte("salt-a-salt-a-salt-a-salt-a-salt"))
	s2 := SessionSubkey(master, []byte("salt-b-salt-b-salt-b-salt-b-salt"))
	if len(s1) != len(master) || len(s2) != len(master) {
		t.Fatalf("subkey lengths %d/%d, want %d", len(s1), len(s2), len(master))
	}
	if bytes.Equal(s1, s2) {
		t.Error("different salts produced identical subkeys")
	}
}

// TestSessionSubkeyAllocs pins a subkey derivation at one allocation,
// the returned key: every HMAC runs on one stack-held SHA-1 digest.
func TestSessionSubkeyAllocs(t *testing.T) {
	master := EVPBytesToKey("secret", 32)
	salt := make([]byte, 32)
	if allocs := testing.AllocsPerRun(100, func() { SessionSubkey(master, salt) }); allocs > 1 {
		t.Errorf("SessionSubkey allocates %.1f times per call, want at most 1 (its result)", allocs)
	}
}
