// Package ssproto implements the Shadowsocks wire protocol over net.Conn:
// the deprecated stream-cipher construction
//
//	[variable-length IV][encrypted payload...]
//
// and the AEAD construction
//
//	[variable-length salt]
//	[2-byte encrypted length][16-byte length tag]
//	[encrypted payload][16-byte payload tag]
//	...
//
// exactly as described in §2 of the paper and the Shadowsocks whitepaper.
// NewConn wraps a transport connection in whichever construction the cipher
// spec selects; the result is a net.Conn carrying plaintext whose ciphertext
// on the wire is indistinguishable from random bytes.
package ssproto

import (
	"crypto/rand"
	"io"
	"net"

	"sslab/internal/sscrypto"
)

// MaxChunkPayload is the maximum plaintext length of one AEAD chunk; the
// two length bytes encode at most 0x3FFF.
const MaxChunkPayload = 0x3FFF

// NewConn wraps transport in the construction selected by spec, keyed by
// masterKey. The same call serves both client and server: each direction
// has its own independently derived IV/salt.
func NewConn(transport net.Conn, spec sscrypto.Spec, masterKey []byte) net.Conn {
	return NewConnWithRand(transport, spec, masterKey, rand.Reader)
}

// NewConnWithRand is NewConn with explicit IV/salt randomness, for
// deterministic tests and for the prober simulator's replay recording.
func NewConnWithRand(transport net.Conn, spec sscrypto.Spec, masterKey []byte, rnd io.Reader) net.Conn {
	if spec.Kind == sscrypto.Stream {
		return &streamConn{Conn: transport, spec: spec, key: masterKey, rand: rnd}
	}
	return &aeadConn{Conn: transport, spec: spec, key: masterKey, rand: rnd}
}
