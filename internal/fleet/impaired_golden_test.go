package fleet

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sslab/internal/gfw"
	"sslab/internal/netsim"
)

// updateGolden rewrites testdata/impaired-fleet.json. Run
//
//	go test ./internal/fleet -run TestGoldenImpairedFleet -update-golden
//
// only together with an intentional behaviour change.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/impaired-fleet.json")

// TestGoldenImpairedFleet pins the report of a small arms-race fleet on
// impaired links. Almost every probe comes from a prober address the
// network has not seen, so this run creates thousands of short-lived
// links that draw only a few values each, next to the long-lived user
// and server links — the link population the zero-impairment goldens
// never reach.
func TestGoldenImpairedFleet(t *testing.T) {
	cfg := Config{
		Seed: 7, Users: 400, UsersPerServer: 5, Hours: 6,
		Mix: armsRaceMix,
		GFW: gfw.Config{Detectors: []string{"shadowsocks", "openvpn", "fullyencrypted"}},
		Impair: &netsim.LinkProfile{
			LatencyBase: 80 * time.Millisecond,
			Jitter:      40 * time.Millisecond,
			Loss:        0.02,
		},
	}
	rep := mustRun(t, cfg)
	if rep.ProbesSent == 0 || rep.Flows == 0 {
		t.Fatalf("run sent %d flows and %d probes; the golden needs both", rep.Flows, rep.ProbesSent)
	}
	got := append(reportJSON(t, rep), '\n')
	path := filepath.Join("testdata", "impaired-fleet.json")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("impaired fleet report differs from %s:\ngot  %s\nwant %s", path, got, want)
	}
}
