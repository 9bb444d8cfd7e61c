package experiment

import (
	"encoding/json"
	"testing"
)

// TestArmsRaceEscalation runs the default chains at fast scale and
// checks the arms-race structure the experiment exists to measure.
func TestArmsRaceEscalation(t *testing.T) {
	rep, err := ArmsRace(ArmsRaceConfig{Seed: 5, Users: 1600, UsersPerServer: 40, Hours: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != len(DefaultChains) {
		t.Fatalf("%d rows, want %d", len(rep.Rows), len(DefaultChains))
	}
	get := func(row ArmsRaceRow, impl string) (s struct {
		Fraction float64
		Blocks   int64
	}) {
		for _, im := range row.PerImpl {
			if im.Name == impl {
				s.Fraction, s.Blocks = im.Fraction, im.Blocks
				return s
			}
		}
		t.Fatalf("row %s: no impl %q", row.Name, impl)
		return s
	}

	ssOnly, withVPN, full3, full4 := rep.Rows[0], rep.Rows[1], rep.Rows[2], rep.Rows[3]

	// The Shadowsocks-only censor cannot touch OpenVPN or obfs servers.
	for _, impl := range []string{"openvpn", "openvpn-auth", "obfs4"} {
		if s := get(ssOnly, impl); s.Blocks != 0 {
			t.Errorf("ss-only chain blocked %s (%d blocks)", impl, s.Blocks)
		}
	}
	// Adding the OpenVPN stage takes down plain-OpenVPN deployments but
	// never tls-auth ones.
	if s := get(withVPN, "openvpn"); s.Blocks == 0 {
		t.Error("ss+openvpn chain never blocked a plain OpenVPN server")
	}
	for _, row := range rep.Rows {
		if s := get(row, "openvpn-auth"); s.Blocks != 0 {
			t.Errorf("chain %s blocked tls-auth OpenVPN (%d blocks)", row.Name, s.Blocks)
		}
		if s := get(row, "obfs4"); s.Blocks != 0 {
			t.Errorf("chain %s blocked obfs4 (%d blocks)", row.Name, s.Blocks)
		}
	}
	// The fully-encrypted stage is what reaches obfs2.
	if s := get(full3, "obfs2"); s.Blocks == 0 {
		t.Error("full chain never blocked an obfs2 server")
	}
	// The TLS exemption must not increase false positives.
	if full4.FalsePositiveFraction > full3.FalsePositiveFraction {
		t.Errorf("tlsexempt raised FP fraction: %.4f > %.4f",
			full4.FalsePositiveFraction, full3.FalsePositiveFraction)
	}

	if rep.Render() == "" {
		t.Error("empty render")
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Errorf("report does not marshal: %v", err)
	}
}

// TestArmsRaceDeterminism: same seed, same report bytes.
func TestArmsRaceDeterminism(t *testing.T) {
	cfg := ArmsRaceConfig{Seed: 9, Users: 400, UsersPerServer: 40, Hours: 3,
		Chains: [][]string{{"shadowsocks"}, {"shadowsocks", "openvpn"}}}
	a, err := ArmsRace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ArmsRace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Error("same seed produced different arms-race reports")
	}
}

// TestArmsRaceChainIsolation: appending a chain must not perturb the
// results of earlier chains (per-chain seed forks are independent).
func TestArmsRaceChainIsolation(t *testing.T) {
	base := ArmsRaceConfig{Seed: 13, Users: 400, UsersPerServer: 40, Hours: 3,
		Chains: [][]string{{"shadowsocks"}}}
	ext := base
	ext.Chains = [][]string{{"shadowsocks"}, {"shadowsocks", "openvpn", "fullyencrypted"}}
	a, err := ArmsRace(base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ArmsRace(ext)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a.Rows[0])
	jb, _ := json.Marshal(b.Rows[0])
	if string(ja) != string(jb) {
		t.Error("adding a chain changed the first chain's row")
	}
}
