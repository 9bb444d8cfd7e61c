package fleet

import (
	"bytes"
	"testing"

	"sslab/internal/gfw"
	"sslab/internal/region"
)

// strippedJSON marshals a report with its echoed Config zeroed, so
// runs whose configs legitimately differ (Regions set vs nil) can be
// compared on outcome bytes alone.
func strippedJSON(t *testing.T, rep *Report) []byte {
	t.Helper()
	rep.Config = Config{}
	return reportJSON(t, rep)
}

// TestRegionIdentityProperty pins the layering satellite: an explicit
// single-region topology with an empty schedule is the pre-region
// engine, byte for byte (Config excluded — it records the knob), for
// several seeds and shard counts, including a topology that restates
// the fleet's censor config as a regional override.
func TestRegionIdentityProperty(t *testing.T) {
	for _, seed := range []int64{3, 7, 11} {
		for _, shards := range []int{0, 4} {
			cfg := smallCfg(seed)
			cfg.Shards = shards
			base := strippedJSON(t, mustRun(t, cfg))

			one := cfg
			one.Regions = &region.Topology{Regions: []region.Region{{Name: "all", Weight: 1}}}
			if got := strippedJSON(t, mustRun(t, one)); !bytes.Equal(got, base) {
				t.Fatalf("seed=%d shards=%d: single-region topology changed report bytes", seed, shards)
			}

			named := cfg
			named.Regions = &region.Topology{Regions: []region.Region{{Name: "everything", Weight: 42.5}}}
			if got := strippedJSON(t, mustRun(t, named)); !bytes.Equal(got, base) {
				t.Fatalf("seed=%d shards=%d: region name/weight leaked into the engine", seed, shards)
			}

			override := cfg
			override.Regions = &region.Topology{Regions: []region.Region{
				{Name: "all", Weight: 1, GFW: &gfw.Config{}},
			}}
			if got := strippedJSON(t, mustRun(t, override)); !bytes.Equal(got, base) {
				t.Fatalf("seed=%d shards=%d: zero-value regional GFW override diverged from fleet default", seed, shards)
			}
		}
	}
}

// blockingCfg is TestFleetBlockingDynamics' recipe: an all-undefended
// population, aggressive recording, enough hours that the block →
// outage → replacement chain fires inside a unit test.
func blockingCfg(seed int64) Config {
	cfg := smallCfg(seed)
	cfg.Users = 800
	cfg.UsersPerServer = 40
	cfg.Hours = 12
	cfg.PeakFlowsPerHour = 6
	cfg.Mix = []ImplShare{{Impl: "sspython", Weight: 1}}
	cfg.GFW.Sensitivity = 1
	cfg.GFW.ReplayBase = 0.3
	return cfg
}

// fourRegions is a sensitivity gradient over otherwise-identical
// censors (regional overrides replace the whole censor config, so each
// restates the aggressive recording base).
func fourRegions() *region.Topology {
	return &region.Topology{Regions: []region.Region{
		{Name: "north", Weight: 1, GFW: &gfw.Config{Sensitivity: 0.05, ReplayBase: 0.3}},
		{Name: "east", Weight: 1, GFW: &gfw.Config{Sensitivity: 0.4, ReplayBase: 0.3}},
		{Name: "south", Weight: 1, GFW: &gfw.Config{Sensitivity: 0.7, ReplayBase: 0.3}},
		{Name: "west", Weight: 1, GFW: &gfw.Config{Sensitivity: 1, ReplayBase: 0.3}},
	}}
}

// TestRegionShape: structural invariants of a genuinely regional run —
// PerRegion rows in topology order covering the whole population, and
// a sensitivity gradient showing up as ordered blocking pressure.
func TestRegionShape(t *testing.T) {
	cfg := blockingCfg(17)
	cfg.Regions = fourRegions()
	rep := mustRun(t, cfg)

	if len(rep.PerRegion) != 4 {
		t.Fatalf("PerRegion has %d rows, want 4", len(rep.PerRegion))
	}
	users, servers := 0, 0
	var flows, wakeups int64
	probes, blocks := 0, 0
	for i, rg := range rep.PerRegion {
		if rg.Name != cfg.Regions.Regions[i].Name {
			t.Fatalf("PerRegion[%d] = %q, want %q", i, rg.Name, cfg.Regions.Regions[i].Name)
		}
		if rg.Users <= 0 || rg.Servers <= 0 {
			t.Fatalf("region %s has %d users / %d servers", rg.Name, rg.Users, rg.Servers)
		}
		users += rg.Users
		servers += rg.Servers
		flows += rg.Flows
		wakeups += rg.Wakeups
		probes += rg.ProbesSent
		blocks += rg.Blocks
	}
	if users != rep.Users || servers != rep.Servers {
		t.Fatalf("regions cover %d users / %d servers, report has %d / %d",
			users, servers, rep.Users, rep.Servers)
	}
	if flows != rep.Flows || wakeups != rep.Wakeups || probes != rep.ProbesSent || blocks != rep.Blocks {
		t.Fatalf("regional totals (flows %d wakeups %d probes %d blocks %d) != global (%d %d %d %d)",
			flows, wakeups, probes, blocks, rep.Flows, rep.Wakeups, rep.ProbesSent, rep.Blocks)
	}
	// The gradient: the gentlest region must block a smaller share of
	// its users than the harshest (individual neighbors may tie at small
	// populations, but the extremes must order).
	lo, hi := rep.PerRegion[0], rep.PerRegion[3]
	if lo.BlockedUserFraction >= hi.BlockedUserFraction {
		t.Fatalf("sensitivity 0.05 region blocked %.3f of users, 1.0 region %.3f — gradient inverted",
			lo.BlockedUserFraction, hi.BlockedUserFraction)
	}
	if hi.Blocks == 0 {
		t.Fatal("harshest region never blocked; gradient test is vacuous")
	}
}

// TestRegionDeterminism: regional runs stay deterministic and worker-
// invariant, and single-region reports carry no PerRegion rows.
func TestRegionDeterminism(t *testing.T) {
	cfg := smallCfg(19)
	cfg.Shards = 3
	cfg.Regions = fourRegions()
	golden := reportJSON(t, mustRun(t, cfg))
	for _, workers := range []int{1, 4} {
		rep, err := Run(cfg, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if got := reportJSON(t, rep); !bytes.Equal(got, golden) {
			t.Fatalf("workers=%d: regional report diverged", workers)
		}
	}

	if rep := mustRun(t, smallCfg(19)); rep.PerRegion != nil {
		t.Fatal("single-region report must not carry PerRegion rows")
	}
}

// TestRegionSchedulePolicy: schedule events actually move the censor.
// A region whose schedule pauses probing at t=0 forever must never
// probe; one that steps sensitivity to 0 at t=0 must never block.
func TestRegionSchedulePolicy(t *testing.T) {
	cfg := blockingCfg(23)
	cfg.Regions = &region.Topology{Regions: []region.Region{
		{Name: "muzzled", Weight: 1, GFW: &gfw.Config{Sensitivity: 1, ReplayBase: 0.3},
			Schedule: region.Schedule{{AtHours: 0, Kind: region.KindPause}}},
		{Name: "toothless", Weight: 1, GFW: &gfw.Config{Sensitivity: 1, ReplayBase: 0.3},
			Schedule: region.Schedule{{AtHours: 0, Kind: region.KindSensitivity, Value: 0}}},
		{Name: "free-fire", Weight: 1, GFW: &gfw.Config{Sensitivity: 1, ReplayBase: 0.3}},
	}}
	rep := mustRun(t, cfg)
	byName := map[string]RegionStats{}
	for _, rg := range rep.PerRegion {
		byName[rg.Name] = rg
	}
	if got := byName["muzzled"]; got.ProbesSent != 0 || got.Blocks != 0 {
		t.Fatalf("paused region probed %d / blocked %d", got.ProbesSent, got.Blocks)
	}
	if got := byName["toothless"]; got.Blocks != 0 {
		t.Fatalf("zero-sensitivity region blocked %d", got.Blocks)
	}
	if byName["toothless"].ProbesSent == 0 {
		t.Fatal("zero-sensitivity region must still probe")
	}
	if got := byName["free-fire"]; got.Blocks == 0 {
		t.Fatal("sensitivity-1 region never blocked; policy test is vacuous")
	}
}

// TestRegionNeverBlockOverride: a region's censor override follows the
// fleet's rule for the engine's censor, so Sensitivity −1 there is the
// probe-but-never-block censor too, where it used to be refused as out
// of [0, 1]; the other region keeps blocking.
func TestRegionNeverBlockOverride(t *testing.T) {
	cfg := blockingCfg(31)
	cfg.Regions = &region.Topology{Regions: []region.Region{
		{Name: "a", Weight: 1, GFW: &gfw.Config{Sensitivity: -1, ReplayBase: 0.3}},
		{Name: "b", Weight: 1},
	}}
	rep := mustRun(t, cfg)
	if a := rep.PerRegion[0]; a.ProbesSent == 0 || a.Blocks != 0 || a.EverBlockedUsers != 0 {
		t.Fatalf("never-block region: probes %d, blocks %d, users blocked %d; want probes and no blocks",
			a.ProbesSent, a.Blocks, a.EverBlockedUsers)
	}
	if b := rep.PerRegion[1]; b.Blocks == 0 {
		t.Fatal("the sensitivity-1 region never blocked; test is vacuous")
	}
}

// TestRegionErrors: topology validation is wired through Run.
func TestRegionErrors(t *testing.T) {
	cfg := smallCfg(29)
	cfg.Regions = &region.Topology{}
	if _, err := Run(cfg); err == nil {
		t.Fatal("empty topology must be rejected")
	}

	cfg = smallCfg(29)
	cfg.Regions = &region.Topology{Regions: []region.Region{
		{Name: "whale", Weight: 1e9},
		{Name: "plankton", Weight: 1e-9}, // rounds to zero of 20 servers
	}}
	if _, err := Run(cfg); err == nil {
		t.Fatal("a region with no servers must be rejected")
	}

	cfg = smallCfg(29)
	cfg.Regions = &region.Topology{Regions: []region.Region{
		{Name: "bad", Weight: 1, GFW: &gfw.Config{Detectors: []string{"no-such-detector"}}},
	}}
	if _, err := Run(cfg); err == nil {
		t.Fatal("unknown regional detector must be rejected")
	}
}
