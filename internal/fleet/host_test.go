package fleet

import (
	"testing"
	"time"

	"sslab/internal/netsim"
	"sslab/internal/reaction"
	"sslab/internal/sscrypto"
	"sslab/internal/trafficgen"
)

// TestServerHostReplayMark: the host recognizes an identical replay by
// the flow's mark alone. After serving a genuine first packet,
// undefended Shadowsocks and obfs2 servers answer a marked replay of it
// with data, and the same bytes sent unmarked get the reaction engine's
// verdict (FIN/ACK for obfs2); a libev server answers the marked replay
// with its replay filter's verdict.
func TestServerHostReplayMark(t *testing.T) {
	client := netsim.Endpoint{IP: "100.64.0.1", Port: 40000}
	prober := netsim.Endpoint{IP: "175.42.1.21", Port: 41234}
	ep := netsim.Endpoint{IP: "198.51.0.1", Port: 8388}
	now := netsim.Epoch
	for _, name := range []string{"sspython", "outline", "libev-old", "libev-new", "obfs2"} {
		im := implementations[name]
		var spec sscrypto.Spec
		var srv, ref *reaction.Server
		wl := im.wl
		if im.proto == protoSS {
			var err error
			if spec, err = sscrypto.Lookup(im.method); err != nil {
				t.Fatal(err)
			}
			if srv, err = reaction.NewServer(im.profile, spec, "pw"); err != nil {
				t.Fatal(err)
			}
			ref, _ = reaction.NewServer(im.profile, spec, "pw")
			wl = trafficgen.CurlLoop
		}
		sim := netsim.NewSim()
		net := netsim.NewNetwork(sim)
		net.AddHost(ep, newServerHost(&Fleet{sim: sim}, srv, im.proto, im.silent))
		pkt := trafficgen.New(1).AppendProtocolFirstPacket(nil, spec, wl)

		if o := net.Connect(client, ep, pkt, false, time.Time{}); o.Reaction != reaction.Data {
			t.Fatalf("%s: genuine flow got %v", name, o.Reaction)
		}
		marked := net.Replay(prober, ep, pkt, now).Reaction
		unmarked := net.Connect(prober, ep, pkt, true, now).Reaction

		wantMarked, wantUnmarked := reaction.Data, reaction.FINACK
		if ref != nil {
			// The reaction engine's verdicts on a server that served pkt.
			ref.RegisterNonce(pkt, now)
			first, second := ref.ReactAt(pkt, now, now), ref.ReactAt(pkt, now, now)
			if im.profile.ReplayDefense {
				if !first.ReplayDetected {
					t.Fatalf("%s: the replay filter missed the replay", name)
				}
				wantMarked = first.Reaction
			}
			wantUnmarked = second.Reaction
			if wantUnmarked == reaction.Data {
				t.Fatalf("%s: the reaction engine serves an unmarked replay; the test cannot tell", name)
			}
		}
		if marked != wantMarked || unmarked != wantUnmarked {
			t.Errorf("%s: marked replay %v, unmarked %v; want %v and %v", name, marked, unmarked, wantMarked, wantUnmarked)
		}
	}
}
