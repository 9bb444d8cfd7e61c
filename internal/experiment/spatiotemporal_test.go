package experiment

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"sslab/internal/fleet"
	"sslab/internal/gfw"
)

func spatioTestCfg(seed int64) SpatioConfig {
	return SpatioConfig{
		Seed:           seed,
		Users:          800,
		UsersPerServer: 40,
		Hours:          9,
		GFW:            gfw.Config{PoolSize: 1500, ReplayBase: 0.3},
	}
}

// TestSpatioRegistered: the runner is in the registry with a compact
// fast-scale config.
func TestSpatioRegistered(t *testing.T) {
	r, ok := Lookup("spatiotemporal")
	if !ok {
		t.Fatal("spatiotemporal not registered")
	}
	cfg, ok := r.Config(1, false).(*SpatioConfig)
	if !ok {
		t.Fatalf("Config returned %T", r.Config(1, false))
	}
	if cfg.Users == 0 || cfg.Hours == 0 {
		t.Fatal("fast config must be compact, not paper scale")
	}
}

// TestSpatioDeterminismAndWorkers: same seed → same bytes; the workers
// path reproduces Run's bytes on a sharded config.
func TestSpatioDeterminismAndWorkers(t *testing.T) {
	cfg := spatioTestCfg(5)
	cfg.Shards = 2
	a, err := Spatiotemporal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		rep, err := Spatiotemporal(cfg, fleet.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, golden) {
			t.Fatalf("workers=%d diverged from serial run", workers)
		}
	}
}

// TestSpatioShapes: the swept regimes actually differ in the expected
// directions — the gradient orders blocking within the steady shape,
// and the probing lull sends fewer probes than steady.
func TestSpatioShapes(t *testing.T) {
	rep, err := Spatiotemporal(spatioTestCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != len(ScheduleShapes) {
		t.Fatalf("%d rows, want %d", len(rep.Rows), len(ScheduleShapes))
	}
	byShape := map[string]SpatioRow{}
	for _, row := range rep.Rows {
		if len(row.PerRegion) != 4 {
			t.Fatalf("shape %s has %d regions, want 4", row.Name, len(row.PerRegion))
		}
		byShape[row.Name] = row
	}
	steady := byShape["steady"]
	first, last := steady.PerRegion[0], steady.PerRegion[3]
	if first.BlockedUserFraction >= last.BlockedUserFraction {
		t.Fatalf("steady gradient inverted: %.3f vs %.3f",
			first.BlockedUserFraction, last.BlockedUserFraction)
	}
	if last.Blocks == 0 {
		t.Fatal("harshest steady region never blocked; sweep is vacuous")
	}
	if lull := byShape["lull"]; lull.ProbesSent >= steady.ProbesSent {
		t.Fatalf("probing lull sent %d probes, steady %d — pause had no effect",
			lull.ProbesSent, steady.ProbesSent)
	}

	out := rep.Render()
	for _, want := range []string{"steady", "crackdown", "lull", "thaw", "ever blocked"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render() missing %q:\n%s", want, out)
		}
	}
}

// TestSpatioUnknownShape: a typo'd shape fails loudly, naming options.
func TestSpatioUnknownShape(t *testing.T) {
	cfg := spatioTestCfg(1)
	cfg.Shapes = []string{"martial-law"}
	if _, err := Spatiotemporal(cfg); err == nil || !strings.Contains(err.Error(), "martial-law") {
		t.Fatalf("unknown shape error = %v", err)
	}
}
