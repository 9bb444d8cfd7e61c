package experiment

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestRunWorkersByteIdentity: every runner takes an intra-run worker
// bound, and for the ones that parallelize inside a run it must not
// change a byte of the report — on sharded configs (Shards is science;
// workers is execution).
func TestRunWorkersByteIdentity(t *testing.T) {
	for _, name := range []string{"fleet", "armsrace", "spatiotemporal"} {
		r, ok := Lookup(name)
		if !ok {
			t.Fatalf("experiment %q not registered", name)
		}

		mkCfg := func() any {
			cfg := r.Config(1, false)
			switch c := cfg.(type) {
			case *ArmsRaceConfig:
				c.Users = 300
				c.Hours = 2
				c.Shards = 3
				c.Chains = [][]string{{"shadowsocks"}, {"shadowsocks", "openvpn"}}
			case *SpatioConfig:
				c.Users = 300
				c.Hours = 3
				c.Shards = 3
				c.Shapes = []string{"steady", "crackdown"}
			default:
				// fleet.Config lives in another package; drive it through
				// JSON like the campaign engine does.
				var m map[string]any
				b, _ := json.Marshal(cfg)
				json.Unmarshal(b, &m)
				m["Users"] = 300
				m["Hours"] = 2
				m["Shards"] = 3
				b, _ = json.Marshal(m)
				json.Unmarshal(b, cfg)
			}
			return cfg
		}

		base, err := r.Run(mkCfg(), 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		golden, err := json.Marshal(base)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			rep, err := r.Run(mkCfg(), workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			got, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, golden) {
				t.Fatalf("%s: Run(cfg, %d) diverged from Run(cfg, 0):\n%s\nvs\n%s", name, workers, got, golden)
			}
		}
	}
}
