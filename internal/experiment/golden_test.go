package experiment

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sslab/internal/gfw"
	"sslab/internal/netsim"
)

// updateGolden rewrites the committed golden reports. Run
//
//	go test ./internal/experiment -run TestGolden -update-golden
//
// only when an intentional behaviour change is being made; the files
// exist to prove that refactors (and the impairment layer with all
// impairments zeroed) leave every experiment's report byte-identical.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden reports")

// goldenCases are compact configurations of every netsim-backed
// experiment, each carrying the given link-impairment profile (nil for
// the ideal network). They are intentionally small (each runs in a
// second or two) but exercise the full pipeline: traffic generation,
// the passive detector, staged probing, the prober pool, and blocking.
func goldenCases(impair *netsim.LinkProfile) []struct {
	name string
	run  func() (Report, error)
} {
	return []struct {
		name string
		run  func() (Report, error)
	}{
		{"shadowsocks", func() (Report, error) {
			return ShadowsocksExperiment(ShadowsocksConfig{
				Seed: 1, Days: 4, ConnsPerPairPerHour: 30,
				GFW:    gfw.Config{PoolSize: 2000},
				Impair: impair,
			})
		}},
		{"sink", func() (Report, error) {
			return SinkExperiments(SinkConfig{
				Seed: 1, Hours: 30, ConnsPerHour: 600,
				GFW:    gfw.Config{PoolSize: 1500},
				Impair: impair,
			})
		}},
		{"blocking", func() (Report, error) {
			return BlockingExperiment(BlockingConfig{
				Seed: 1, Days: 5,
				GFW:    gfw.Config{PoolSize: 1500},
				Impair: impair,
			})
		}},
		{"brdgrd", func() (Report, error) {
			return BrdgrdExperiment(BrdgrdConfig{
				Seed: 1, Hours: 60, OnWindows: [][2]int{{15, 30}},
				GFW:    gfw.Config{PoolSize: 1500},
				Impair: impair,
			})
		}},
		{"fpstudy", func() (Report, error) {
			return FPStudy(FPStudyConfig{
				Seed: 1, FlowsPerKind: 15000,
				GFW:    gfw.Config{PoolSize: 1000},
				Impair: impair,
			})
		}},
		{"banstudy", func() (Report, error) {
			return BanStudy(BanStudyConfig{
				Seed: 1, Triggers: 40000,
				GFW:    gfw.Config{PoolSize: 1500},
				Impair: impair,
			})
		}},
		{"mimicstudy", func() (Report, error) {
			return MimicStudy(MimicStudyConfig{
				Seed: 1, Triggers: 20000,
				GFW:    gfw.Config{PoolSize: 1000},
				Impair: impair,
			})
		}},
	}
}

// TestGoldenZeroImpairment locks the JSON report of each experiment to
// the committed golden bytes. Any change to simulator behaviour under
// default (zero-impairment) conditions — RNG draw order, event
// ordering, report field sets — fails here, which is the acceptance
// gate for the impairment layer: with all impairments zeroed the merged
// reports must be byte-identical to the pre-impairment output.
func TestGoldenZeroImpairment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several compact experiments; skipped with -short")
	}
	for _, tc := range goldenCases(nil) {
		t.Run(tc.name, func(t *testing.T) { checkGolden(t, tc.name, tc.run) })
	}
}

// TestGoldenImpaired pins the impaired path of the two experiments that
// report transport accounting. The profile is harsh enough that every
// counter — prober drops, retries and timeouts, link retransmits and
// lost flows — is non-zero, so the report carries all five fields.
func TestGoldenImpaired(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two compact impaired experiments; skipped with -short")
	}
	impair := &netsim.LinkProfile{
		Loss:        0.3,
		LatencyBase: 2 * time.Second,
		Jitter:      4 * time.Second,
		Retry:       netsim.RetryPolicy{Attempts: 2},
	}
	for _, tc := range goldenCases(impair) {
		if tc.name != "shadowsocks" && tc.name != "sink" {
			continue
		}
		t.Run(tc.name, func(t *testing.T) { checkGolden(t, tc.name+"-impaired", tc.run) })
	}
}

// checkGolden compares run's indented JSON report with
// testdata/golden/name.json, or rewrites the file under -update-golden.
func checkGolden(t *testing.T, name string, run func() (Report, error)) {
	t.Helper()
	rep, err := run()
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "golden", name+".json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s report diverged from golden %s (%d vs %d bytes); "+
			"the output must stay byte-identical — if the change is intentional, regenerate with -update-golden",
			name, path, len(got), len(want))
	}
}
