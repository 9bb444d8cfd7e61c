package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"sslab/internal/gfw"
	"sslab/internal/netsim"
	"sslab/internal/region"
	"sslab/internal/seedfork"
	"sslab/internal/stats"
	"sslab/internal/trafficgen"
)

// runPlan is the run's space partition, fixed by Config before any
// unit executes: the global per-server implementation assignment, the
// region ranges, and each unit's (region, shard) identity. Workers
// execute this plan; they never reshape it, which is what makes the
// worker count report-invariant.
type runPlan struct {
	nServers int
	impl     []int32 // implementation index per global server
	regions  []regionPlan
	units    []unitSpec
}

// regionPlan is one region's slice of the plan: its contiguous global
// server range, its resolved censor configuration, and its schedule.
type regionPlan struct {
	name     string
	gcfg     gfw.Config // per-unit Seed and NoProbeLog applied later
	schedule region.Schedule
	lo, hi   int
}

// unitSpec identifies one executable sub-simulation: a (region, shard)
// cell with its contiguous global server range and its seedfork parent.
type unitSpec struct {
	region int
	shard  int
	seed   int64
	lo, hi int
}

// resolveTopology returns the run's effective topology: the configured
// one, or the implicit single-region identity.
func resolveTopology(cfg Config) *region.Topology {
	if cfg.Regions != nil {
		return cfg.Regions
	}
	return region.Single()
}

// planRun draws the global implementation mix, carves the server space
// into contiguous region ranges (proportional to weight, by cumulative
// rounding), and splits each region into up to Config.Shards balanced
// contiguous shard ranges. The mix is one sequential stream over all
// servers regardless of regions and shards, so both repartition the
// population without recomposing it.
//
// Seed derivation preserves the historical streams exactly when it
// can: a single-region plan forks shard seeds straight off Config.Seed
// (cfg.Seed itself for one shard), so every pre-region golden is
// reproduced byte-for-byte; a multi-region plan gives each region an
// independent ("region", r) fork and derives shard seeds under it.
func planRun(cfg Config) (runPlan, error) {
	nServers := (cfg.Users + cfg.UsersPerServer - 1) / cfg.UsersPerServer
	var totalW float64
	for _, s := range cfg.Mix {
		totalW += s.Weight
	}
	mixRng := rand.New(rand.NewSource(seedfork.Fork(cfg.Seed, "fleet.mix")))
	impl := make([]int32, nServers)
	for j := range impl {
		draw := mixRng.Float64() * totalW
		implIdx := len(cfg.Mix) - 1
		for k, s := range cfg.Mix {
			if draw < s.Weight {
				implIdx = k
				break
			}
			draw -= s.Weight
		}
		impl[j] = int32(implIdx)
	}

	topo := resolveTopology(cfg)
	p := runPlan{nServers: nServers, impl: impl}
	weightSum := topo.TotalWeight()
	single := len(topo.Regions) == 1
	var cum float64
	at := 0
	for r, reg := range topo.Regions {
		cum += reg.Weight
		hi := int(math.Round(cum / weightSum * float64(nServers)))
		if r == len(topo.Regions)-1 {
			hi = nServers
		}
		if hi <= at {
			return runPlan{}, fmt.Errorf("fleet: region %q gets no servers (weight %v of %v over %d servers)",
				reg.Name, reg.Weight, weightSum, nServers)
		}

		gcfg := cfg.GFW
		if reg.GFW != nil {
			gcfg = *reg.GFW
			if gcfg.Sensitivity == 0 {
				gcfg.Sensitivity = 0.25 // the fleet-level default, see Config.GFW
			}
		}
		rp := regionPlan{name: reg.Name, gcfg: gcfg, schedule: reg.Schedule, lo: at, hi: hi}

		// Seed parents: single-region plans keep the historical labels.
		regionSeed := cfg.Seed
		if !single {
			regionSeed = seedfork.Fork(cfg.Seed, "region", int64(r))
		}
		shards := cfg.Shards
		if n := hi - at; shards > n {
			shards = n
		}
		if shards < 1 {
			shards = 1
		}
		q, rem := (hi-at)/shards, (hi-at)%shards
		slo := at
		for s := 0; s < shards; s++ {
			n := q
			if s < rem {
				n++ // the first rem shards absorb the remainder
			}
			seed := regionSeed
			if shards > 1 {
				seed = seedfork.Fork(regionSeed, "fleet.shard", int64(s))
			}
			p.units = append(p.units, unitSpec{region: r, shard: s, seed: seed, lo: slo, hi: slo + n})
			slo += n
		}
		p.regions = append(p.regions, rp)
		at = hi
	}
	return p, nil
}

// buildUnit constructs one unit's sub-simulation: its own simulator,
// network, censor and RNG streams. When restoring, the unit is built
// structurally identical but schedules no initial events — the
// snapshot's pending events are re-armed afterwards.
func buildUnit(cfg Config, plan runPlan, u unitSpec, restoring bool) *Fleet {
	rp := plan.regions[u.region]

	sim := netsim.NewSim(netsim.WithSeed(u.seed))
	var nopts []netsim.NetworkOption
	if cfg.Impair != nil {
		nopts = append(nopts, netsim.WithDefaultLink(*cfg.Impair))
	}
	net := netsim.NewNetwork(sim, nopts...)

	gcfg := rp.gcfg
	gcfg.Seed = seedfork.Fork(u.seed, "fleet.gfw")
	gcfg.NoProbeLog = true
	if gcfg.Sensitivity < 0 {
		// The historical probe-but-never-block sentinel: gfw now rejects
		// out-of-domain sensitivities, and 0 blocks exactly as often as
		// any negative value did (never) with the same single coin flip.
		gcfg.Sensitivity = 0
	}
	g := gfw.New(gfw.Env{Sim: sim, Net: net}, gfw.WithConfig(gcfg))
	net.AddMiddlebox(g)

	userLo := u.lo * cfg.UsersPerServer
	userHi := u.hi * cfg.UsersPerServer
	if userHi > cfg.Users {
		userHi = cfg.Users // the last server may be partially subscribed
	}
	f := &Fleet{
		cfg:          cfg,
		sim:          sim,
		net:          net,
		gfw:          g,
		seed:         u.seed,
		serverLo:     u.lo,
		serverHi:     u.hi,
		userLo:       userLo,
		userHi:       userHi,
		regionIdx:    u.region,
		regionName:   rp.name,
		schedule:     rp.schedule,
		restoring:    restoring,
		nextServerIP: u.lo, // initial endpoints keep their global addresses
		tg:           trafficgen.New(seedfork.Fork(u.seed, "fleet.trafficgen")),
		end:          netsim.Epoch.Add(time.Duration(cfg.Hours) * time.Hour),
		meanGap:      time.Duration(float64(time.Hour) / cfg.PeakFlowsPerHour),
		replaceAfter: time.Duration(cfg.ReplaceAfterMin) * time.Minute,
		bucket:       time.Duration(cfg.BucketMin) * time.Minute,
		epochs:       map[netsim.Endpoint]epoch{},
		flowsTS:      stats.NewTimeSeries(time.Duration(cfg.BucketMin) * time.Minute),
		latencies:    stats.NewQuantile(0.01),
		lifetimes:    stats.NewQuantile(0.01),
		gapQ:         stats.NewQuantile(0.01),
	}
	f.parg = policyArg{f: f}
	f.bindMetrics()
	f.build(plan)
	if !restoring {
		sim.AtCall(netsim.Epoch.Add(f.bucket), runSample, f)
		f.schedulePolicy()
	}
	return f
}
