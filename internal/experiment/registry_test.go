package experiment

import (
	"encoding/json"
	"testing"

	"sslab/internal/fleet"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"table1", "shadowsocks", "sink", "brdgrd", "blocking",
		"fpstudy", "banstudy", "mimicstudy", "probecost", "matrix", "robustness",
		"fleet", "armsrace", "spatiotemporal"}
	rs := Runners()
	if len(rs) != len(want) {
		t.Fatalf("registry has %d runners, want %d", len(rs), len(want))
	}
	for i, name := range want {
		if rs[i].Name() != name {
			t.Errorf("runner %d = %q, want %q (presentation order)", i, rs[i].Name(), name)
		}
		if _, ok := Lookup(name); !ok {
			t.Errorf("Lookup(%q) failed", name)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup accepted an unknown name")
	}
	if len(Names()) != len(want) {
		t.Error("Names() incomplete")
	}
	for _, r := range rs {
		if r.Description() == "" {
			t.Errorf("%s: empty description (-list output would be blank)", r.Name())
		}
	}
}

// TestRunnerConfigRoundTrips: every config must survive a JSON round
// trip (the campaign engine applies grid overrides through one) and
// carry the seed it was built with.
func TestRunnerConfigRoundTrips(t *testing.T) {
	for _, r := range Runners() {
		cfg := r.Config(77, false)
		b, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("%s: marshal: %v", r.Name(), err)
		}
		if err := json.Unmarshal(b, cfg); err != nil {
			t.Fatalf("%s: unmarshal: %v", r.Name(), err)
		}
		b2, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != string(b2) {
			t.Errorf("%s: config not stable under JSON round trip:\n%s\nvs\n%s", r.Name(), b, b2)
		}
		if r.Name() != "table1" && !contains(string(b), `"Seed":77`) {
			t.Errorf("%s: config JSON missing seed: %s", r.Name(), b)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestRunnerRunsSmall drives two cheap experiments end-to-end through
// the Runner interface and checks the reports marshal to JSON.
func TestRunnerRunsSmall(t *testing.T) {
	for _, tc := range []struct {
		name  string
		shape func(cfg any)
	}{
		{"table1", func(any) {}},
		{"probecost", func(cfg any) { cfg.(*ProbeCostConfig).Trials = 5 }},
		{"matrix", func(cfg any) { cfg.(*MatrixConfig).Trials = 5 }},
		{"fleet", func(cfg any) {
			c := cfg.(*fleet.Config)
			c.Users = 300
			c.Hours = 2
		}},
		{"armsrace", func(cfg any) {
			c := cfg.(*ArmsRaceConfig)
			c.Users = 300
			c.Hours = 2
			c.Chains = [][]string{{"shadowsocks"}, {"ss", "ovpn", "fep"}}
		}},
	} {
		r, ok := Lookup(tc.name)
		if !ok {
			t.Fatalf("no runner %q", tc.name)
		}
		cfg := r.Config(3, false)
		tc.shape(cfg)
		rep, err := r.Run(cfg, 0)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rep.Render() == "" {
			t.Errorf("%s: empty render", tc.name)
		}
		if _, err := json.Marshal(rep); err != nil {
			t.Errorf("%s: report does not marshal: %v", tc.name, err)
		}
	}
}

func TestRunnerRejectsWrongConfigType(t *testing.T) {
	r, _ := Lookup("probecost")
	if _, err := r.Run(&MatrixConfig{}, 0); err == nil {
		t.Fatal("wrong config type accepted")
	}
}
