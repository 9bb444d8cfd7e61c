package ssproto

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"testing"
	"testing/quick"

	"sslab/internal/entropy"
	"sslab/internal/sscrypto"
)

func pipePair(t *testing.T, method string) (client, server net.Conn) {
	t.Helper()
	spec, err := sscrypto.Lookup(method)
	if err != nil {
		t.Fatal(err)
	}
	key := spec.Key("test-password")
	a, b := net.Pipe()
	return NewConn(a, spec, key), NewConn(b, spec, key)
}

// TestRoundTripAllMethods sends data both directions under every method.
func TestRoundTripAllMethods(t *testing.T) {
	for _, method := range sscrypto.Methods() {
		method := method
		t.Run(method, func(t *testing.T) {
			t.Parallel()
			client, server := pipePair(t, method)
			defer client.Close()
			defer server.Close()

			req := []byte("GET / HTTP/1.1\r\nHost: wikipedia.org\r\n\r\n")
			resp := bytes.Repeat([]byte("response data! "), 100)

			errc := make(chan error, 1)
			go func() {
				buf := make([]byte, len(req))
				if _, err := io.ReadFull(server, buf); err != nil {
					errc <- err
					return
				}
				if !bytes.Equal(buf, req) {
					errc <- errors.New("server saw wrong request")
					return
				}
				_, err := server.Write(resp)
				errc <- err
			}()

			if _, err := client.Write(req); err != nil {
				t.Fatalf("client write: %v", err)
			}
			got := make([]byte, len(resp))
			if _, err := io.ReadFull(client, got); err != nil {
				t.Fatalf("client read: %v", err)
			}
			if !bytes.Equal(got, resp) {
				t.Error("client saw wrong response")
			}
			if err := <-errc; err != nil {
				t.Fatalf("server: %v", err)
			}
		})
	}
}

// rawRecorder captures what actually goes on the wire.
type rawRecorder struct {
	net.Conn
	segments [][]byte
}

func (r *rawRecorder) Write(p []byte) (int, error) {
	r.segments = append(r.segments, append([]byte(nil), p...))
	return r.Conn.Write(p)
}

// TestFirstPacketShape verifies the first client flight is one segment of
// [IV||ciphertext] (stream) or [salt||len|tag||payload|tag] (AEAD) — the
// exact packet the GFW's detector measures. The expected sizes are the
// ones §4.2 derives: payload + IV for stream; payload + salt + 2 + 2*16
// for AEAD.
func TestFirstPacketShape(t *testing.T) {
	payload := make([]byte, 120)
	for _, tc := range []struct {
		method   string
		wireSize int
	}{
		{"aes-256-ctr", 16 + 120},
		{"chacha20-ietf", 12 + 120},
		{"chacha20", 8 + 120},
		{"aes-128-gcm", 16 + 2 + 16 + 120 + 16},
		{"chacha20-ietf-poly1305", 32 + 2 + 16 + 120 + 16},
	} {
		spec, _ := sscrypto.Lookup(tc.method)
		key := spec.Key("pw")
		a, b := net.Pipe()
		rec := &rawRecorder{Conn: a}
		client := NewConn(rec, spec, key)
		go io.Copy(io.Discard, b)
		if _, err := client.Write(payload); err != nil {
			t.Fatalf("%s: %v", tc.method, err)
		}
		if len(rec.segments) != 1 {
			t.Errorf("%s: first flight split into %d segments", tc.method, len(rec.segments))
			continue
		}
		if got := len(rec.segments[0]); got != tc.wireSize {
			t.Errorf("%s: first packet %d bytes, want %d", tc.method, got, tc.wireSize)
		}
		a.Close()
		b.Close()
	}
}

// TestWireLooksRandom verifies the on-the-wire bytes have near-uniform
// entropy — the property that makes Shadowsocks traffic match the GFW's
// high-entropy trigger in the first place.
func TestWireLooksRandom(t *testing.T) {
	spec, _ := sscrypto.Lookup("aes-256-gcm")
	key := spec.Key("pw")
	a, b := net.Pipe()
	rec := &rawRecorder{Conn: a}
	client := NewConn(rec, spec, key)
	go io.Copy(io.Discard, b)

	// Low-entropy plaintext must still yield high-entropy ciphertext.
	if _, err := client.Write(bytes.Repeat([]byte{'A'}, 2000)); err != nil {
		t.Fatal(err)
	}
	wire := rec.segments[0]
	if h := entropy.Shannon(wire); h < 7.5 {
		t.Errorf("wire entropy %.2f, want >= 7.5", h)
	}
	a.Close()
	b.Close()
}

// TestAEADChunking verifies payloads larger than one chunk round-trip.
func TestAEADChunking(t *testing.T) {
	client, server := pipePair(t, "chacha20-ietf-poly1305")
	defer client.Close()
	defer server.Close()

	big := make([]byte, MaxChunkPayload*2+7)
	rand.New(rand.NewSource(9)).Read(big)

	go client.Write(big)
	got := make([]byte, len(big))
	if _, err := io.ReadFull(server, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Error("multi-chunk payload corrupted")
	}
}

// TestAEADTamperDetected flips one wire byte and expects ErrAuth.
func TestAEADTamperDetected(t *testing.T) {
	spec, _ := sscrypto.Lookup("aes-256-gcm")
	key := spec.Key("pw")
	a, b := net.Pipe()
	server := NewConn(b, spec, key)

	go func() {
		// Build a valid wire image out of band and corrupt it before the
		// server sees it.
		rec := &rawRecorder{Conn: discardConn{}}
		c2 := NewConn(rec, spec, key)
		c2.Write([]byte("hello world"))
		wire := rec.segments[0]
		wire[len(wire)-1] ^= 0x01 // corrupt the payload tag
		a.Write(wire)
	}()

	buf := make([]byte, 64)
	_, err := server.Read(buf)
	if !errors.Is(err, ErrAuth) {
		t.Errorf("tampered chunk: err = %v, want ErrAuth", err)
	}
}

type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }

// TestStreamNoIntegrity documents the stream construction's malleability:
// flipping a ciphertext bit flips the plaintext bit without any error —
// the root cause of probe types R2–R5.
func TestStreamNoIntegrity(t *testing.T) {
	spec, _ := sscrypto.Lookup("aes-256-ctr")
	key := spec.Key("pw")
	a, b := net.Pipe()
	server := NewConn(b, spec, key)

	go func() {
		rec := &rawRecorder{Conn: discardConn{}}
		c2 := NewConn(rec, spec, key)
		c2.Write([]byte{0x01, 10, 0, 0, 1, 0, 80}) // IPv4 target spec
		wire := rec.segments[0]
		wire[len(wire)-7] ^= 0x10 // flip a bit in the address-type byte
		a.Write(wire)
	}()

	buf := make([]byte, 7)
	if _, err := io.ReadFull(server, buf); err != nil {
		t.Fatalf("stream read failed: %v", err)
	}
	if buf[0] != 0x01^0x10 {
		t.Errorf("bit flip did not propagate: first byte %#x", buf[0])
	}
}

func BenchmarkAEADThroughput(b *testing.B) {
	spec, _ := sscrypto.Lookup("chacha20-ietf-poly1305")
	key := spec.Key("pw")
	a, bb := net.Pipe()
	client := NewConn(a, spec, key)
	server := NewConn(bb, spec, key)
	go func() {
		buf := make([]byte, 64*1024)
		for {
			if _, err := server.Read(buf); err != nil {
				return
			}
		}
	}()
	msg := make([]byte, 16*1024)
	b.SetBytes(int64(len(msg)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Write(msg); err != nil {
			b.Fatal(err)
		}
	}
	a.Close()
	bb.Close()
}

// TestQuickRoundTripArbitraryWrites property-tests the AEAD codec: any
// sequence of writes is received as the same concatenated byte stream.
func TestQuickRoundTripArbitraryWrites(t *testing.T) {
	spec, _ := sscrypto.Lookup("aes-128-gcm")
	key := spec.Key("quick-pw")
	f := func(chunks [][]byte) bool {
		var want []byte
		total := 0
		for _, c := range chunks {
			if total += len(c); total > 1<<18 {
				return true // keep the test fast
			}
			want = append(want, c...)
		}
		a, b := net.Pipe()
		defer a.Close()
		defer b.Close()
		client := NewConn(a, spec, key)
		server := NewConn(b, spec, key)
		go func() {
			for _, c := range chunks {
				if len(c) == 0 {
					continue
				}
				if _, err := client.Write(c); err != nil {
					return
				}
			}
			a.Close()
		}()
		got := make([]byte, 0, len(want))
		buf := make([]byte, 4096)
		for len(got) < len(want) {
			n, err := server.Read(buf)
			got = append(got, buf[:n]...)
			if err != nil {
				break
			}
		}
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
