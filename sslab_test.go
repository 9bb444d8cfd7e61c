package sslab_test

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"sslab"
	"sslab/internal/reaction"
)

// TestPublicAPIProxyAndProbe exercises the facade end to end: run a
// server through the public constructors, tunnel data, then probe it the
// way the GFW would.
func TestPublicAPIProxyAndProbe(t *testing.T) {
	srv, err := sslab.ListenServer("127.0.0.1:0", sslab.ServerConfig{
		Method:           "chacha20-ietf-poly1305",
		Password:         "facade-pw",
		Profile:          sslab.Outline106,
		HandshakeTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Probe: the facade's Probe must reproduce the v1.0.6 bands live.
	payload := bytes.Repeat([]byte{0x42}, 256)
	if r, err := sslab.Probe(srv.Addr().String(), payload[:50]); err != nil || r == reaction.Timeout {
		t.Errorf("50-byte probe: %v, %v — want immediate close", r, err)
	}

	// Proxy: a hardened server serves a genuine client.
	h, err := sslab.ListenServer("127.0.0.1:0", sslab.ServerConfig{
		Method: "aes-256-gcm", Password: "facade-pw",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	echo := startTCPEcho(t)
	cli, err := sslab.NewClient(sslab.ClientConfig{
		Server: h.Addr().String(), Method: "aes-256-gcm", Password: "facade-pw",
	})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := cli.Dial(echo)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte("facade"))
	got := make([]byte, 6)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(conn, got); err != nil || string(got) != "facade" {
		t.Errorf("echo through facade: %q, %v", got, err)
	}
}

// TestFacadeExperimentRunners: every Run* wrapper produces a renderable
// report.
func TestFacadeExperimentRunners(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runners are exercised in internal/experiment")
	}
	r, err := sslab.RunReactionMatrices(sslab.MatrixConfig{Seed: 3, Trials: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Render()) == 0 {
		t.Error("empty render")
	}
	if sslab.Version == "" {
		t.Error("version unset")
	}
}

func startTCPEcho(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go io.Copy(c, c)
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String()
}
