package ssserver

import (
	"bytes"
	"net"
	"testing"
	"time"

	"sslab/internal/reaction"
	"sslab/internal/ssclient"
)

// startUDPEcho runs a UDP server echoing datagrams with an "ok:" prefix.
func startUDPEcho(t *testing.T) net.PacketConn {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		buf := make([]byte, 4096)
		for {
			n, from, err := pc.ReadFrom(buf)
			if err != nil {
				return
			}
			pc.WriteTo(append([]byte("ok:"), buf[:n]...), from)
		}
	}()
	t.Cleanup(func() { pc.Close() })
	return pc
}

// TestUDPRelayEndToEnd exercises the full UDP path: client association →
// encrypted datagram → server NAT → target → encrypted reply → client.
func TestUDPRelayEndToEnd(t *testing.T) {
	echo := startUDPEcho(t)

	srv, err := New(Config{
		Method: "chacha20-ietf-poly1305", Password: "udp-pw",
		Profile: reaction.Hardened,
	})
	if err != nil {
		t.Fatal(err)
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	go srv.ServeUDP(pc)

	client, err := ssclient.New(ssclient.Config{
		Server: pc.LocalAddr().String(), Method: "chacha20-ietf-poly1305", Password: "udp-pw",
	})
	if err != nil {
		t.Fatal(err)
	}
	u, err := client.DialUDP()
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()

	if err := u.Send(echo.LocalAddr().String(), []byte("ping")); err != nil {
		t.Fatal(err)
	}
	from, payload, err := u.Recv(time.Now().Add(5 * time.Second))
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if !bytes.Equal(payload, []byte("ok:ping")) {
		t.Errorf("payload %q", payload)
	}
	if from.String() != echo.LocalAddr().String() {
		t.Errorf("reply source %v, want %v", from, echo.LocalAddr())
	}

	// A second datagram reuses the NAT session.
	if err := u.Send(echo.LocalAddr().String(), []byte("again")); err != nil {
		t.Fatal(err)
	}
	_, payload, err = u.Recv(time.Now().Add(5 * time.Second))
	if err != nil || !bytes.Equal(payload, []byte("ok:again")) {
		t.Errorf("second datagram: %q %v", payload, err)
	}
}

// TestUDPRelayDropsGarbage: unauthenticated datagrams are dropped
// silently and counted.
func TestUDPRelayDropsGarbage(t *testing.T) {
	srv, err := New(Config{
		Method: "aes-256-gcm", Password: "udp-pw", Profile: reaction.Hardened,
	})
	if err != nil {
		t.Fatal(err)
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	go srv.ServeUDP(pc)

	raw, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	raw.Write(bytes.Repeat([]byte{0xAB}, 120))

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if srv.Stats.AuthErrors.Value() >= 1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Error("garbage datagram not counted as auth error")
}

// TestUDPAssociationOutlivesIdleTimeout: once a session's return path
// idles out, the next datagram from the same client opens a new session
// instead of going to the closed socket.
func TestUDPAssociationOutlivesIdleTimeout(t *testing.T) {
	echo := startUDPEcho(t)
	srv, err := New(Config{
		Method: "chacha20-ietf-poly1305", Password: "udp-pw", Profile: reaction.Hardened,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.udpIdle = 200 * time.Millisecond
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	go srv.ServeUDP(pc)

	client, err := ssclient.New(ssclient.Config{
		Server: pc.LocalAddr().String(), Method: "chacha20-ietf-poly1305", Password: "udp-pw",
	})
	if err != nil {
		t.Fatal(err)
	}
	u, err := client.DialUDP()
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()

	// ping sends msg until a reply arrives, as a UDP client retries.
	ping := func(msg string) {
		t.Helper()
		for try := 0; try < 3; try++ {
			if err := u.Send(echo.LocalAddr().String(), []byte(msg)); err != nil {
				t.Fatal(err)
			}
			_, payload, err := u.Recv(time.Now().Add(time.Second))
			if err == nil && string(payload) == "ok:"+msg {
				return
			}
		}
		t.Fatalf("%s: no reply in 3 tries", msg)
	}
	ping("before")
	time.Sleep(4 * srv.udpIdle)
	ping("after")
	if n := srv.Stats.RelayErrors.Value(); n != 0 {
		t.Errorf("RelayErrors = %d, want 0", n)
	}
}
