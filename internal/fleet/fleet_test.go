package fleet

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// smallCfg is a population small enough for unit tests but big enough
// to exercise every engine path (diurnal thinning, probing, blocking,
// replacement).
func smallCfg(seed int64) Config {
	return Config{
		Seed:           seed,
		Users:          500,
		UsersPerServer: 25,
		Hours:          6,
		BucketMin:      30,
	}
}

func mustRun(t *testing.T, cfg Config) *Report {
	t.Helper()
	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rep
}

func reportJSON(t *testing.T, r *Report) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	return b
}

// TestFleetDeterminism pins the core contract: equal seeds give
// byte-identical reports.
func TestFleetDeterminism(t *testing.T) {
	a := reportJSON(t, mustRun(t, smallCfg(7)))
	b := reportJSON(t, mustRun(t, smallCfg(7)))
	if string(a) != string(b) {
		t.Fatal("same-seed fleet runs produced different reports")
	}
	c := reportJSON(t, mustRun(t, smallCfg(8)))
	if string(a) == string(c) {
		t.Fatal("different seeds produced identical reports (seed is not wired through)")
	}
}

// TestFleetShape checks structural invariants of a run's report.
func TestFleetShape(t *testing.T) {
	cfg := smallCfg(11)
	rep := mustRun(t, cfg)

	if rep.Users != cfg.Users {
		t.Fatalf("Users = %d, want %d", rep.Users, cfg.Users)
	}
	if want := cfg.Users / cfg.UsersPerServer; rep.Servers != want {
		t.Fatalf("Servers = %d, want %d", rep.Servers, want)
	}
	if rep.Wakeups == 0 || rep.Flows == 0 {
		t.Fatalf("engine idle: wakeups=%d flows=%d", rep.Wakeups, rep.Flows)
	}
	if rep.Flows > rep.Wakeups {
		t.Fatalf("flows (%d) exceed wakeups (%d): diurnal thinning missing", rep.Flows, rep.Wakeups)
	}
	buckets := cfg.Hours * 60 / cfg.BucketMin
	if len(rep.BlockedCurve) != buckets || len(rep.ProbeLoad) != buckets {
		t.Fatalf("series lengths %d/%d, want %d buckets",
			len(rep.BlockedCurve), len(rep.ProbeLoad), buckets)
	}
	var tsFlows int64
	for _, n := range rep.FlowsPerBucket.Counts {
		tsFlows += n
	}
	if tsFlows != rep.Flows {
		t.Fatalf("FlowsPerBucket sums to %d, want Flows=%d", tsFlows, rep.Flows)
	}
	// Median wake gap should track the configured Poisson rate:
	// exp(mean 30min) has median 30·ln2 ≈ 20.8 min.
	gapMin := rep.MedianWakeGapS / 60
	if gapMin < 15 || gapMin > 27 {
		t.Fatalf("median wake gap %.1f min, want ≈ 20.8 min", gapMin)
	}
}

// TestFleetBlockingDynamics drives an all-undefended population at full
// censor sensitivity and checks the block → user-outage → replacement
// chain fires.
func TestFleetBlockingDynamics(t *testing.T) {
	cfg := smallCfg(3)
	cfg.Users = 800
	cfg.UsersPerServer = 40
	cfg.Hours = 12
	cfg.PeakFlowsPerHour = 6
	cfg.Mix = []ImplShare{{Impl: "sspython", Weight: 1}}
	cfg.GFW.Sensitivity = 1
	cfg.GFW.ReplayBase = 0.3 // record aggressively so blocks arrive in a small run
	rep := mustRun(t, cfg)

	if rep.Blocks == 0 {
		t.Fatal("no block events against an all-undefended population at sensitivity 1")
	}
	if rep.EverBlockedUsers == 0 {
		t.Fatal("block events occurred but no user ever observed an outage")
	}
	if rep.Replacements == 0 {
		t.Fatal("users were blocked but no server was ever replaced")
	}
	if rep.DetectionLatency.N == 0 {
		t.Fatal("blocks occurred but no detection latency was resolved (epochs map broken)")
	}
	if rep.ServerLifetime.N != rep.Replacements {
		t.Fatalf("lifetime samples %d != replacements %d", rep.ServerLifetime.N, rep.Replacements)
	}
	if rep.BlockedUserFraction <= 0 || rep.BlockedUserFraction > 1 {
		t.Fatalf("BlockedUserFraction = %v", rep.BlockedUserFraction)
	}
	if rep.DetectionLatency.P50 <= 0 {
		t.Fatalf("median detection latency %v s", rep.DetectionLatency.P50)
	}
}

// TestFleetNeverBlockCensor pins the negative-Sensitivity contract: the
// censor probes but never blocks, so no user ever observes an outage.
func TestFleetNeverBlockCensor(t *testing.T) {
	cfg := smallCfg(5)
	cfg.Mix = []ImplShare{{Impl: "sspython", Weight: 1}}
	cfg.PeakFlowsPerHour = 6
	cfg.GFW.Sensitivity = -1
	rep := mustRun(t, cfg)

	if rep.ProbesSent == 0 {
		t.Fatal("probe-only censor sent no probes")
	}
	if rep.Blocks != 0 || rep.EverBlockedUsers != 0 || rep.Replacements != 0 {
		t.Fatalf("negative sensitivity still blocked: blocks=%d users=%d repl=%d",
			rep.Blocks, rep.EverBlockedUsers, rep.Replacements)
	}
	for _, n := range rep.BlockedCurve {
		if n != 0 {
			t.Fatal("BlockedCurve nonzero under a never-block censor")
		}
	}
}

// TestFleetDefendedMixResists checks the paper's §6 asymmetry: a
// population of replay-defended servers (libev-new) survives the same
// censor that blocks undefended ones.
func TestFleetDefendedMixResists(t *testing.T) {
	cfg := smallCfg(3)
	cfg.PeakFlowsPerHour = 6
	cfg.Mix = []ImplShare{{Impl: "libev-new", Weight: 1}}
	cfg.GFW.Sensitivity = 1
	rep := mustRun(t, cfg)
	if rep.Blocks != 0 {
		t.Fatalf("replay-defended population got %d block events", rep.Blocks)
	}
}

// TestFleetConfigValidation: NewEngine rejects every configuration the
// engine cannot run, with an error naming the offending field, instead
// of panicking while planning, stopping virtual time (a sample or
// wake-up scheduled in the past is clamped to now, forever), or
// silently running something else.
func TestFleetConfigValidation(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		name string
		set  func(*Config)
		want string
	}{
		{"unknown implementation", func(c *Config) { c.Mix = []ImplShare{{Impl: "no-such-impl", Weight: 1}} }, "no-such-impl"},
		{"negative mix weight", func(c *Config) { c.Mix = []ImplShare{{Impl: "ssr", Weight: -1}} }, "weight"},
		{"all-zero mix weights", func(c *Config) { c.Mix = []ImplShare{{Impl: "ssr"}, {Impl: "web"}} }, "positive weight"},
		{"negative Users", func(c *Config) { c.Users = -100 }, "Users"},
		{"negative UsersPerServer", func(c *Config) { c.UsersPerServer = -1 }, "UsersPerServer"},
		{"negative Hours", func(c *Config) { c.Hours = -2 }, "Hours"},
		{"negative PeakFlowsPerHour", func(c *Config) { c.PeakFlowsPerHour = -1 }, "PeakFlowsPerHour"},
		{"NaN PeakFlowsPerHour", func(c *Config) { c.PeakFlowsPerHour = nan }, "PeakFlowsPerHour"},
		{"infinite PeakFlowsPerHour", func(c *Config) { c.PeakFlowsPerHour = math.Inf(1) }, "PeakFlowsPerHour"},
		{"negative ReplaceAfterMin", func(c *Config) { c.ReplaceAfterMin = -5 }, "ReplaceAfterMin"},
		{"negative BucketMin", func(c *Config) { c.BucketMin = -15 }, "BucketMin"},
		{"ActivityFloor above 1", func(c *Config) { c.ActivityFloor = 2 }, "ActivityFloor"},
		{"negative ActivityFloor", func(c *Config) { c.ActivityFloor = -0.5 }, "ActivityFloor"},
		{"NaN ActivityFloor", func(c *Config) { c.ActivityFloor = nan }, "ActivityFloor"},
		{"negative BrowseShare", func(c *Config) { c.BrowseShare = -1 }, "BrowseShare"},
		{"BrowseShare above 1", func(c *Config) { c.BrowseShare = 1.5 }, "BrowseShare"},
		{"NaN BrowseShare", func(c *Config) { c.BrowseShare = nan }, "BrowseShare"},
		{"censor Sensitivity above 1", func(c *Config) { c.GFW.Sensitivity = 2 }, "Sensitivity"},
		{"negative censor BlockTTLHours", func(c *Config) { c.GFW.BlockTTLHours = -3 }, "BlockTTLHours"},
		{"nonzero censor VerdictCache", func(c *Config) { c.GFW.VerdictCache = 64 }, "VerdictCache"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallCfg(1)
			tc.set(&cfg)
			_, err := NewEngine(cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("NewEngine error = %v, want one naming %q", err, tc.want)
			}
			// A config error is reported before any unit is built, not
			// recovered from a worker's panic.
			if err != nil && strings.Contains(err.Error(), "panic:") {
				t.Errorf("NewEngine error = %v, want a validation error, not a recovered panic", err)
			}
		})
	}
}
