package ssserver

import (
	"net"
	"sync"
	"time"

	"sslab/internal/socks"
	"sslab/internal/ssproto"
)

// udpSessionTimeout is how long a UDP association waits for a reply
// before its NAT entry goes; the next datagram from the client opens a
// new one.
const udpSessionTimeout = 60 * time.Second

// udpNAT maps a client address to its outbound socket.
type udpNAT struct {
	mu       sync.Mutex
	sessions map[string]net.PacketConn
}

// ServeUDP relays Shadowsocks UDP datagrams on pc until it is closed:
// client packets are decrypted and forwarded to their embedded targets;
// replies are encrypted back to the client with the reply's source as the
// embedded address, per the specification.
func (s *Server) ServeUDP(pc net.PacketConn) error {
	nat := &udpNAT{sessions: map[string]net.PacketConn{}}
	defer nat.closeAll()
	buf := make([]byte, 64*1024)
	for {
		n, clientAddr, err := pc.ReadFrom(buf)
		if err != nil {
			return err
		}
		target, payload, err := ssproto.UnpackUDP(s.spec, s.key, buf[:n])
		if err != nil {
			s.Stats.AuthErrors.Inc()
			continue // UDP has no connection to reset; drop silently
		}
		client := clientAddr.String()
		remote, fresh, err := nat.session(client)
		if err != nil {
			continue
		}
		if fresh {
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer nat.drop(client, remote)
				s.udpReturnPath(pc, remote, clientAddr)
			}()
		}
		raddr, err := net.ResolveUDPAddr("udp", target.String())
		if err != nil {
			continue
		}
		if _, err := remote.WriteTo(payload, raddr); err != nil {
			s.Stats.RelayErrors.Inc()
		}
	}
}

// session finds or creates the NAT entry for a client.
func (n *udpNAT) session(client string) (net.PacketConn, bool, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if remote, ok := n.sessions[client]; ok {
		return remote, false, nil
	}
	remote, err := net.ListenPacket("udp", ":0")
	if err != nil {
		return nil, false, err
	}
	n.sessions[client] = remote
	return remote, true, nil
}

// drop removes the client's NAT entry if it still maps to remote, then
// closes remote.
func (n *udpNAT) drop(client string, remote net.PacketConn) {
	n.mu.Lock()
	if n.sessions[client] == remote {
		delete(n.sessions, client)
	}
	n.mu.Unlock()
	remote.Close()
}

func (n *udpNAT) closeAll() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, remote := range n.sessions {
		remote.Close()
	}
}

// udpReturnPath pumps replies from the session's outbound socket back to
// the client, encrypted, until the session idles out.
func (s *Server) udpReturnPath(pc, remote net.PacketConn, clientAddr net.Addr) {
	buf := make([]byte, 64*1024)
	for {
		remote.SetReadDeadline(time.Now().Add(s.udpIdle))
		n, from, err := remote.ReadFrom(buf)
		if err != nil {
			return
		}
		src, err := socks.ParseAddr(from.String())
		if err != nil {
			continue
		}
		pkt, err := ssproto.PackUDP(s.spec, s.key, src, buf[:n])
		if err != nil {
			continue
		}
		if _, err := pc.WriteTo(pkt, clientAddr); err != nil {
			s.Stats.RelayErrors.Inc()
		}
	}
}
