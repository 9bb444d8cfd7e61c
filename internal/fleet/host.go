package fleet

import (
	"bytes"

	"sslab/internal/defense"
	"sslab/internal/detector"
	"sslab/internal/netsim"
	"sslab/internal/reaction"
)

// serverHost is the fleet's server endpoint for all protocol families.
//
// For Shadowsocks it keeps the experiment package's ServerHost
// semantics: genuine clients are served and their nonces enter the
// replay filter; identical replays (flows the censor marked
// netsim.Flow.Replayed) against a server without replay defense are
// served with data; everything else gets the reaction engine's verdict.
// The host remembers no payloads: the censor knows which probes it
// built as identical replays and says so on the flow.
//
// The other protocol families model each deployment's probe posture:
//
//   - OpenVPN without tls-auth answers any well-formed client reset
//     (including a replayed one) and RSTs garbage — the reachable
//     fingerprint Xue et al. exploited; with tls-auth every
//     unauthenticated packet is silently dropped, so probes time out.
//   - obfs2-era transports accept replayed handshakes (data) and close
//     loudly on malformed input; obfs4-style transports are
//     probe-silent.
//   - Web servers answer HTTP and TLS probes like any public site —
//     responses to probes are normal here, and blocks against them are
//     false positives.
type serverHost struct {
	f      *Fleet
	srv    *reaction.Server // Shadowsocks only; nil for other protocols
	proto  protoKind
	silent bool
}

func newServerHost(f *Fleet, srv *reaction.Server, proto protoKind, silent bool) *serverHost {
	return &serverHost{f: f, srv: srv, proto: proto, silent: silent}
}

var httpGET = []byte("GET ")
var httpPOST = []byte("POST ")

// HandleFlow implements netsim.Host.
//
//sslab:hotpath
func (h *serverHost) HandleFlow(fl *netsim.Flow) netsim.Outcome {
	now := h.f.sim.Now()
	if !fl.Probe {
		// A flow silenced by null-routing carries no payload; the server
		// never saw a connection, so nothing enters the replay filter.
		if fl.FirstPayload == nil {
			return netsim.Outcome{Reaction: reaction.Timeout}
		}
		if h.proto == protoSS {
			h.srv.RegisterNonce(fl.FirstPayload, now)
		}
		return netsim.Outcome{Reaction: reaction.Data, ResponseLen: 1200}
	}
	switch h.proto {
	case protoOpenVPN:
		if h.silent {
			// tls-auth: the HMAC check fails on anything the prober can
			// synthesize or replay; the server says nothing.
			return netsim.Outcome{Reaction: reaction.Timeout}
		}
		if _, ok := detector.ParseClientReset(fl.FirstPayload); ok {
			// A well-formed (or replayed) reset elicits the server's own
			// hard reset — the byte-identifiable reply probes look for.
			return netsim.Outcome{Reaction: reaction.Data, ResponseLen: 100}
		}
		return netsim.Outcome{Reaction: reaction.RST}
	case protoObfs:
		if h.silent {
			return netsim.Outcome{Reaction: reaction.Timeout}
		}
		if fl.Replayed {
			// obfs2 has no replay protection: the replayed handshake
			// completes and the server answers with data.
			return netsim.Outcome{Reaction: reaction.Data, ResponseLen: 600}
		}
		return netsim.Outcome{Reaction: reaction.FINACK}
	case protoWeb:
		if bytes.HasPrefix(fl.FirstPayload, httpGET) || bytes.HasPrefix(fl.FirstPayload, httpPOST) {
			return netsim.Outcome{Reaction: reaction.Data, ResponseLen: 1200}
		}
		if defense.IsTLSFramed(fl.FirstPayload) {
			return netsim.Outcome{Reaction: reaction.Data, ResponseLen: 1200}
		}
		// Garbage at a web port: the HTTP server closes after a parse
		// error, having read the request.
		return netsim.Outcome{Reaction: reaction.FINACK}
	}
	if fl.Replayed && !h.srv.Profile.ReplayDefense {
		return netsim.Outcome{Reaction: reaction.Data, ResponseLen: 800}
	}
	r := h.srv.ReactAt(fl.FirstPayload, fl.GeneratedAt, now)
	return netsim.Outcome{Reaction: r.Reaction}
}
