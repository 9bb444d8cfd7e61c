package gfw

import (
	"bytes"
	"slices"
	"testing"

	"sslab/internal/detector"
)

// TestChainEquivalence pins the detector-chain refactor: an explicit
// Detectors: ["shadowsocks"] chain must be bit-identical to the default
// (empty) config — same RNG draw order, same probe log, same counters.
func TestChainEquivalence(t *testing.T) {
	cases := []struct {
		name string
		a, b Config
	}{
		{
			name: "default vs explicit shadowsocks",
			a:    Config{Seed: 7},
			b:    Config{Seed: 7, Detectors: []string{"shadowsocks"}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ga, _, _ := runCampaign(t, respondingHost, 30000, tc.a)
			gb, _, _ := runCampaign(t, respondingHost, 30000, tc.b)
			if ga.PayloadsRecorded != gb.PayloadsRecorded {
				t.Errorf("PayloadsRecorded: %d vs %d", ga.PayloadsRecorded, gb.PayloadsRecorded)
			}
			if ga.ProbesSent != gb.ProbesSent {
				t.Errorf("ProbesSent: %d vs %d", ga.ProbesSent, gb.ProbesSent)
			}
			la, lb := ga.Log.Records, gb.Log.Records
			if len(la) != len(lb) {
				t.Fatalf("probe log length: %d vs %d", len(la), len(lb))
			}
			for i := range la {
				same := la[i].Time.Equal(lb[i].Time) &&
					la[i].SrcIP == lb[i].SrcIP && la[i].SrcPort == lb[i].SrcPort &&
					la[i].Type == lb[i].Type &&
					la[i].ReplayOf.Equal(lb[i].ReplayOf) &&
					bytes.Equal(la[i].Payload, lb[i].Payload)
				if !same {
					t.Fatalf("probe log diverges at entry %d", i)
				}
			}
		})
	}
}

// TestStageRecordings: per-stage attribution counters must sum to the
// total recorded count, and the winning stage names must be stage names.
func TestStageRecordings(t *testing.T) {
	cfg := Config{Seed: 3, Detectors: []string{detector.StageShadowsocks, detector.StageOpenVPN, detector.StageFullyEncrypted}}
	g, _, _ := runCampaign(t, sinkHost, 30000, cfg)

	names := g.DetectorNames()
	want := []string{detector.StageShadowsocks, detector.StageOpenVPN, detector.StageFullyEncrypted}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("DetectorNames() = %v, want %v", names, want)
		}
	}
	sum := 0
	for _, sc := range g.StageRecordings() {
		if !slices.Contains(detector.Names(), sc.Name) {
			t.Errorf("stage name %q is not a stage", sc.Name)
		}
		sum += sc.Recorded
	}
	if sum != g.PayloadsRecorded {
		t.Errorf("stage recordings sum %d != PayloadsRecorded %d", sum, g.PayloadsRecorded)
	}
	if g.PayloadsRecorded == 0 {
		t.Error("campaign recorded nothing; test is vacuous")
	}
}

// TestUnknownDetectorPanics: New must reject config typos loudly.
func TestUnknownDetectorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New accepted an unknown detector name")
		}
	}()
	runCampaign(t, sinkHost, 1, Config{Seed: 1, Detectors: []string{"shadowsock"}})
}
