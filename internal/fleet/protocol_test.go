package fleet

import (
	"strings"
	"testing"

	"sslab/internal/gfw"
)

// TestProtocolMixOutcomes runs a mixed-protocol population under the
// full detector chain and checks the arms-race structure: probeable
// deployments (plain OpenVPN, obfs2) lose servers, probe-resistant ones
// (tls-auth OpenVPN, obfs4) never produce a confirmable response and
// survive, and the per-implementation accounting is internally
// consistent.
func TestProtocolMixOutcomes(t *testing.T) {
	rep, err := Run(Config{
		Seed:           11,
		Users:          3000,
		UsersPerServer: 50,
		Hours:          6,
		ActivityFloor:  1,
		Mix: []ImplShare{
			{Impl: "sspython", Weight: 0.2},
			{Impl: "openvpn", Weight: 0.2},
			{Impl: "openvpn-auth", Weight: 0.15},
			{Impl: "obfs2", Weight: 0.15},
			{Impl: "obfs4", Weight: 0.15},
			{Impl: "web", Weight: 0.15},
		},
		GFW: gfwChainConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}

	byName := map[string]ImplStats{}
	var users, servers, ever, blocks int64
	for _, im := range rep.PerImpl {
		byName[im.Name] = im
		users += im.Users
		servers += im.Servers
		ever += im.EverBlockedUsers
		blocks += im.Blocks
	}
	if users != int64(rep.Users) {
		t.Errorf("per-impl users sum %d != %d", users, rep.Users)
	}
	if servers != int64(rep.Servers) {
		t.Errorf("per-impl servers sum %d != %d", servers, rep.Servers)
	}
	if ever != rep.EverBlockedUsers {
		t.Errorf("per-impl ever-blocked sum %d != %d", ever, rep.EverBlockedUsers)
	}
	if blocks != int64(rep.Blocks) {
		t.Errorf("per-impl blocks sum %d != %d", blocks, rep.Blocks)
	}

	// Probe-resistant deployments must never be confirmed: tls-auth and
	// obfs4 servers time every probe out.
	for _, name := range []string{"openvpn-auth", "obfs4"} {
		if b := byName[name].Blocks; b != 0 {
			t.Errorf("%s: %d blocks, want 0 (probe-silent)", name, b)
		}
	}
	// Probeable deployments must actually fall to the chain at this scale.
	for _, name := range []string{"openvpn", "obfs2"} {
		if byName[name].Blocks == 0 {
			t.Errorf("%s: no blocks; the %v chain never confirmed a probeable server", name, rep.Config.GFW.Detectors)
		}
	}

	// Stage attribution must be populated and sum to the recorded total.
	sum := 0
	for _, sc := range rep.StageRecordings {
		sum += sc.Recorded
	}
	if sum != rep.PayloadsRecorded {
		t.Errorf("stage recordings sum %d != PayloadsRecorded %d", sum, rep.PayloadsRecorded)
	}
}

// gfwChainConfig returns the censor config for the full three-stage
// passive chain used by the protocol-mix tests.
func gfwChainConfig() (c gfw.Config) {
	c.Detectors = []string{"shadowsocks", "openvpn", "fullyencrypted"}
	return c
}

// TestRunRejectsBadDetectors: a typo in the detector chain, or a
// shorthand such as "ss" or "tls", must surface as an error from Run
// that lists the four stage names, not a panic from the censor
// constructor.
func TestRunRejectsBadDetectors(t *testing.T) {
	for _, name := range []string{"shadowsock", "ss", "tls"} {
		cfg := Config{Seed: 1, Users: 10, Hours: 1}
		cfg.GFW.Detectors = []string{name}
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "fullyencrypted, openvpn, shadowsocks, tlsexempt") {
			t.Errorf("Detectors [%q]: error %v, want one listing the four stages", name, err)
		}
	}
}
