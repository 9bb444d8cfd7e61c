package experiment

import (
	"testing"
	"time"

	"sslab/internal/netsim"
	"sslab/internal/reaction"
	"sslab/internal/sscrypto"
	"sslab/internal/trafficgen"
)

// TestServerHostReplayMark: ServerHost recognizes an identical replay by
// the flow's mark alone. After serving a genuine first packet, an
// undefended server answers a marked replay of it with data and the
// same bytes sent unmarked with the reaction engine's verdict; a libev
// server answers the marked replay with its replay filter's verdict.
func TestServerHostReplayMark(t *testing.T) {
	client := netsim.Endpoint{IP: "150.109.30.1", Port: 40000}
	prober := netsim.Endpoint{IP: "175.42.1.21", Port: 41234}
	ep := netsim.Endpoint{IP: "178.62.30.1", Port: 443}
	now := netsim.Epoch
	for _, c := range []struct {
		profile reaction.Profile
		method  string
	}{
		{reaction.Outline107, "chacha20-ietf-poly1305"},
		{reaction.SSPython, "aes-256-cfb"},
		{reaction.LibevNew, "aes-256-gcm"},
	} {
		name := c.profile.Name + " " + c.profile.Versions
		sim := netsim.NewSim()
		net := netsim.NewNetwork(sim)
		host, err := NewServerHost(sim, c.profile, c.method, "pw")
		if err != nil {
			t.Fatal(err)
		}
		net.AddHost(ep, host)
		spec, _ := sscrypto.Lookup(c.method)
		pkt := trafficgen.New(1).FirstWirePacket(spec, trafficgen.CurlLoop)

		if o := net.Connect(client, ep, pkt, false, time.Time{}); o.Reaction != reaction.Data {
			t.Fatalf("%s: genuine flow got %v", name, o.Reaction)
		}
		marked := net.Replay(prober, ep, pkt, now).Reaction
		unmarked := net.Connect(prober, ep, pkt, true, now).Reaction

		// The reaction engine's verdicts on a server that served pkt.
		ref, _ := reaction.NewServer(c.profile, spec, "pw")
		ref.RegisterNonce(pkt, now)
		first, second := ref.ReactAt(pkt, now, now), ref.ReactAt(pkt, now, now)
		wantMarked := reaction.Data
		if c.profile.ReplayDefense {
			if !first.ReplayDetected {
				t.Fatalf("%s: the replay filter missed the replay", name)
			}
			wantMarked = first.Reaction
		}
		if second.Reaction == reaction.Data {
			t.Fatalf("%s: the reaction engine serves an unmarked replay; the test cannot tell", name)
		}
		if marked != wantMarked || unmarked != second.Reaction || host.ProbesSeen != 2 {
			t.Errorf("%s: marked replay %v, unmarked %v, %d probes seen; want %v, %v and 2",
				name, marked, unmarked, host.ProbesSeen, wantMarked, second.Reaction)
		}
	}
}
