package sscrypto

import (
	"crypto/md5"
	"crypto/sha1"
	"errors"
)

// HKDFSHA1 derives keying material per RFC 5869 using HMAC-SHA1, the KDF
// mandated by the Shadowsocks AEAD specification:
//
//	subkey = HKDF-SHA1(key=master, salt=salt, info="ss-subkey")
//
// length must be at most 255*20 bytes.
func HKDFSHA1(secret, salt, info []byte, length int) ([]byte, error) {
	if length <= 0 || length > 255*sha1.Size {
		return nil, errors.New("sscrypto: bad HKDF output length")
	}
	var zeroSalt [sha1.Size]byte
	if salt == nil {
		salt = zeroSalt[:]
	}
	// Every HMAC (RFC 2104) below runs on this one digest, in this
	// function, where its calls resolve statically: the digest, the pads
	// and the intermediate sums stay on the stack. hmac.New would build
	// two digests and their pads for each HMAC.
	h := sha1.New()
	var pad [sha1.BlockSize]byte
	var prk, inner [sha1.Size]byte
	out := make([]byte, 0, length+sha1.Size)
	// Step 0 extracts PRK = HMAC(salt, secret); step i > 0 expands
	// T(i) = HMAC(PRK, T(i-1) || info || i) onto out.
	for i := 0; i == 0 || len(out) < length; i++ {
		key := prk[:]
		if i == 0 {
			key = salt
		}
		pad = [sha1.BlockSize]byte{}
		if len(key) > sha1.BlockSize {
			h.Reset()
			h.Write(key)
			h.Sum(pad[:0])
		} else {
			copy(pad[:], key)
		}
		for j := range pad {
			pad[j] ^= 0x36 // ipad
		}
		h.Reset()
		h.Write(pad[:])
		if i == 0 {
			h.Write(secret)
		} else {
			h.Write(out[max(len(out)-sha1.Size, 0):])
			h.Write(info)
			h.Write([]byte{byte(i)})
		}
		h.Sum(inner[:0])
		for j := range pad {
			pad[j] ^= 0x36 ^ 0x5c // ipad to opad
		}
		h.Reset()
		h.Write(pad[:])
		h.Write(inner[:])
		if i == 0 {
			h.Sum(prk[:0])
		} else {
			out = h.Sum(out)
		}
	}
	return out[:length], nil
}

// ssSubkeyInfo is the HKDF info string fixed by the Shadowsocks AEAD spec.
var ssSubkeyInfo = []byte("ss-subkey")

// SessionSubkey derives the per-direction AEAD session subkey from the
// master key and the salt that prefixes the stream.
func SessionSubkey(masterKey, salt []byte) []byte {
	k, err := HKDFSHA1(masterKey, salt, ssSubkeyInfo, len(masterKey))
	if err != nil {
		panic(err) // cannot happen: master keys are 16–32 bytes
	}
	return k
}

// EVPBytesToKey derives a master key from a password exactly as OpenSSL's
// EVP_BytesToKey does with MD5 and no salt — the scheme every Shadowsocks
// implementation uses to turn the shared password into the master key:
//
//	D1 = MD5(password), D2 = MD5(D1 || password), ...
//	key = (D1 || D2 || ...)[:keyLen]
func EVPBytesToKey(password string, keyLen int) []byte {
	var prev []byte
	out := make([]byte, 0, keyLen+md5.Size)
	for len(out) < keyLen {
		h := md5.New()
		h.Write(prev)
		h.Write([]byte(password))
		prev = h.Sum(nil)
		out = append(out, prev...)
	}
	return out[:keyLen]
}
