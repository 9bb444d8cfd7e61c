package netsim

import "time"

// Timeouts is the connection-patience configuration of the real-socket
// endpoints (internal/ssclient, internal/ssserver): one struct, one set
// of defaults. Zero fields select the defaults via WithDefaults. The
// simulated prober (internal/gfw) keeps its own fixed 10 s patience.
type Timeouts struct {
	// Connect bounds TCP connection establishment: the client's dial and
	// the server's dial to the proxied target.
	Connect time.Duration
	// Handshake bounds the first protocol exchange: how long a server
	// waits for protocol data.
	Handshake time.Duration
	// Idle bounds relay inactivity; zero means relays wait forever
	// (the historical behaviour).
	Idle time.Duration
}

// WithDefaults returns t with zero fields replaced by the defaults:
// Connect 10s, Handshake 60s (the common implementation default the
// paper contrasts with the GFW's shorter prober patience), Idle 0.
func (t Timeouts) WithDefaults() Timeouts {
	if t.Connect <= 0 {
		t.Connect = 10 * time.Second
	}
	if t.Handshake <= 0 {
		t.Handshake = 60 * time.Second
	}
	return t
}
