package fleet

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"sslab/internal/gfw"
	"sslab/internal/metrics"
	"sslab/internal/netsim"
	"sslab/internal/region"
)

// identityMixes are the server spreads the identity property draws
// from: the default mix, the arms-race mix (inlined, as experiment
// imports fleet) with its three-stage chain, and Shadowsocks next to
// web servers.
var identityMixes = []struct {
	mix   []ImplShare
	chain []string
}{
	{nil, nil},
	{[]ImplShare{
		{Impl: "libev-new", Weight: 0.20},
		{Impl: "sspython", Weight: 0.10},
		{Impl: "openvpn", Weight: 0.10},
		{Impl: "openvpn-auth", Weight: 0.10},
		{Impl: "obfs2", Weight: 0.10},
		{Impl: "obfs4", Weight: 0.10},
		{Impl: "web", Weight: 0.30},
	}, []string{"shadowsocks", "openvpn", "fullyencrypted"}},
	{[]ImplShare{{Impl: "sspython", Weight: 0.7}, {Impl: "web", Weight: 0.3}}, nil},
}

// randomIdentityCfg draws one small fleet: 1–4 shards, 1–3 regions with
// schedules, one of identityMixes, impairment on or off, and a bucket
// width that may or may not divide the run (or outlast it).
func randomIdentityCfg(rng *rand.Rand) Config {
	m := identityMixes[rng.Intn(len(identityMixes))]
	cfg := Config{
		Seed:             rng.Int63n(1 << 20),
		Users:            100 + rng.Intn(500),
		UsersPerServer:   5 + rng.Intn(20),
		Hours:            1 + rng.Intn(5),
		PeakFlowsPerHour: float64(2 + rng.Intn(5)),
		BucketMin:        []int{7, 15, 20, 25, 30, 45, 60, 90, 200}[rng.Intn(9)],
		Shards:           1 + rng.Intn(4),
		Mix:              m.mix,
		GFW:              gfw.Config{Detectors: m.chain, Sensitivity: rng.Float64(), ReplayBase: 0.3},
	}
	if rng.Intn(2) == 0 {
		cfg.Impair = &netsim.LinkProfile{LatencyBase: 80 * time.Millisecond, Jitter: 40 * time.Millisecond, Loss: 0.02}
	}
	n := 1 + rng.Intn(3)
	if n == 1 && rng.Intn(2) == 0 {
		return cfg
	}
	cfg.Regions = &region.Topology{}
	for r := 0; r < n; r++ {
		rg := region.Region{Name: fmt.Sprintf("r%d", r), Weight: 0.5 + rng.Float64()}
		if rng.Intn(2) == 0 {
			rg.GFW = &gfw.Config{Detectors: m.chain, Sensitivity: rng.Float64(), ReplayBase: 0.3}
		}
		at := rng.Float64() * float64(cfg.Hours) / 2
		rg.Schedule = region.Schedule{
			{AtHours: at, Kind: region.KindSensitivity, Value: rng.Float64()},
			{AtHours: at + 0.25, Kind: region.KindPause},
			{AtHours: at + 0.5, Kind: region.KindResume},
			{AtHours: at + 0.75, Kind: region.KindBlockTTL, Value: float64(1 + rng.Intn(3)), JitterHours: float64(rng.Intn(2))},
		}
		cfg.Regions.Regions = append(cfg.Regions.Regions, rg)
	}
	return cfg
}

// TestFleetAccountingIdentities checks, over random small fleets, that
// a report's totals agree with the run's counters and with each of
// their breakdowns: by implementation, by detector stage, by bucket
// and by region. Case 0 is a 2 h run in 7 min buckets: its trailing
// 1 min bucket must be sampled like the others, or the probe load
// misses the probes sent in it.
func TestFleetAccountingIdentities(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := Config{Seed: 1, Users: 1000, Hours: 2, BucketMin: 7}
	for i := 0; i <= 40; i++ {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			m := metrics.New()
			rep, err := Run(cfg, WithWorkers(2), WithMetrics(m))
			if err != nil {
				t.Fatal(err)
			}
			checkIdentities(t, rep, m)
		})
		cfg = randomIdentityCfg(rng)
	}
}

func checkIdentities(t *testing.T, rep *Report, m *metrics.Registry) {
	t.Helper()
	eq := func(name string, got, want int64) {
		t.Helper()
		if got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	counter := func(name string) int64 { return m.Counter(name).Value() }

	eq("net.flows_total", counter("net.flows_total"), rep.Flows+int64(rep.ProbesSent))
	eq("net.flows_probe", counter("net.flows_probe"), int64(rep.ProbesSent))
	eq("fleet.flows", counter("fleet.flows"), rep.Flows)
	eq("fleet.wakeups", counter("fleet.wakeups"), rep.Wakeups)
	eq("fleet.replacements", counter("fleet.replacements"), rep.Replacements)
	eq("gfw.probes_sent", counter("gfw.probes_sent"), int64(rep.ProbesSent))
	eq("gfw.payloads_recorded", counter("gfw.payloads_recorded"), int64(rep.PayloadsRecorded))
	eq("gfw.triggers", counter("gfw.triggers"), int64(rep.Triggers))
	eq("gfw.block_events", counter("gfw.block_events"), int64(rep.Blocks))

	var users, servers, ever, blocks int64
	for _, im := range rep.PerImpl {
		users += im.Users
		servers += im.Servers
		ever += im.EverBlockedUsers
		blocks += im.Blocks
	}
	eq("Σ PerImpl.Users", users, int64(rep.Users))
	eq("Σ PerImpl.Servers", servers, int64(rep.Servers))
	eq("Σ PerImpl.EverBlockedUsers", ever, rep.EverBlockedUsers)
	eq("Σ PerImpl.Blocks", blocks, int64(rep.Blocks))

	var recorded int64
	for _, sc := range rep.StageRecordings {
		recorded += int64(sc.Recorded)
	}
	eq("Σ StageRecordings", recorded, int64(rep.PayloadsRecorded))

	eq("Σ FlowsPerBucket", rep.FlowsPerBucket.Sum(), rep.Flows)
	var load int64
	for _, n := range rep.ProbeLoad {
		load += n
	}
	eq("Σ ProbeLoad", load, int64(rep.ProbesSent))
	run := time.Duration(rep.Config.Hours) * time.Hour
	bucket := time.Duration(rep.BucketMin) * time.Minute
	buckets := int64((run + bucket - 1) / bucket)
	eq("len(ProbeLoad)", int64(len(rep.ProbeLoad)), buckets) // a partial bucket counts
	eq("len(BlockedCurve)", int64(len(rep.BlockedCurve)), buckets)
	if n := int64(len(rep.FlowsPerBucket.Counts)); n > buckets {
		t.Errorf("%d flow buckets, more than the run's %d", n, buckets)
	}

	if !(0 <= rep.BlockedAtEnd && rep.BlockedAtEnd <= rep.EverBlockedUsers && rep.EverBlockedUsers <= int64(rep.Users)) {
		t.Errorf("BlockedAtEnd %d, EverBlockedUsers %d, Users %d: want 0 ≤ each ≤ the next",
			rep.BlockedAtEnd, rep.EverBlockedUsers, rep.Users)
	}

	if len(rep.PerRegion) == 0 {
		return
	}
	var sum RegionStats
	for _, rg := range rep.PerRegion {
		sum.Users += rg.Users
		sum.Servers += rg.Servers
		sum.Wakeups += rg.Wakeups
		sum.Flows += rg.Flows
		sum.ProbesSent += rg.ProbesSent
		sum.Blocks += rg.Blocks
		sum.EverBlockedUsers += rg.EverBlockedUsers
		sum.BlockedAtEnd += rg.BlockedAtEnd
		sum.Replacements += rg.Replacements
	}
	eq("Σ PerRegion.Users", int64(sum.Users), int64(rep.Users))
	eq("Σ PerRegion.Servers", int64(sum.Servers), int64(rep.Servers))
	eq("Σ PerRegion.Wakeups", sum.Wakeups, rep.Wakeups)
	eq("Σ PerRegion.Flows", sum.Flows, rep.Flows)
	eq("Σ PerRegion.ProbesSent", int64(sum.ProbesSent), int64(rep.ProbesSent))
	eq("Σ PerRegion.Blocks", int64(sum.Blocks), int64(rep.Blocks))
	eq("Σ PerRegion.EverBlockedUsers", sum.EverBlockedUsers, rep.EverBlockedUsers)
	eq("Σ PerRegion.BlockedAtEnd", sum.BlockedAtEnd, rep.BlockedAtEnd)
	eq("Σ PerRegion.Replacements", sum.Replacements, rep.Replacements)
}
