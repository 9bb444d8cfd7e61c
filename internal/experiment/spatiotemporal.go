package experiment

import (
	"fmt"
	"strings"

	"sslab/internal/fleet"
	"sslab/internal/gfw"
	"sslab/internal/region"
	"sslab/internal/seedfork"
	"sslab/internal/stats"
)

// The spatiotemporal experiment models what censorship measurement
// studies keep reporting and single-censor simulations cannot: the GFW
// is not one machine. Blocking pressure differs by province and ISP,
// and it moves — sensitivity tightens around politically charged
// dates, probing pauses and resumes, block lifetimes stretch and
// shrink. The experiment sweeps schedule *shapes* over a regional
// sensitivity gradient and reports how the same fleet of servers and
// users fares under each regime: per-region blocked-user fractions,
// detection latencies, and server lifetimes over multi-week horizons.

// SpatioConfig parameterizes the regional-gradient × schedule-shape
// sweep. Zero values take the full-scale defaults noted per field.
type SpatioConfig struct {
	// Seed drives all randomness; each shape runs under an independent
	// fork, so adding a shape never perturbs the others.
	Seed int64
	// Users, UsersPerServer, Hours size each shape's population run
	// (defaults 20000 / 50 / 504 — three virtual weeks).
	Users          int
	UsersPerServer int
	Hours          int
	// Shards space-shards each run (default 1). Science, like every
	// config field; the -workers count executing the shards is not.
	Shards int `json:",omitempty"`
	// Regions sizes the sensitivity gradient (default 4).
	Regions int
	// BaseSensitivity is region 0's censor sensitivity (default 0.05)
	// and SensitivityStep the per-region increment (default 0.3);
	// region r runs at min(1, base + r·step), so the default gradient
	// is 0.05, 0.35, 0.65, 0.95.
	BaseSensitivity float64
	SensitivityStep float64
	// Shapes are the schedule shapes to sweep (default ScheduleShapes).
	Shapes []string `json:",omitempty"`
	// Mix is the server implementation mix (default: 70% paper-era
	// Shadowsocks, 30% web — undefended enough that regional contrast
	// is visible, with a false-positive yardstick).
	Mix []fleet.ImplShare `json:",omitempty"`
	// GFW is the censor configuration shared by every region; the
	// gradient overrides Sensitivity per region.
	GFW gfw.Config
}

// ScheduleShapes are the swept policy regimes, each a named generator
// of per-region schedules over the run's horizon:
//
//   - steady: no events — the pure spatial gradient.
//   - crackdown: every region steps to sensitivity 1 for the middle
//     third of the run, then back to its gradient value.
//   - lull: probing pauses for the middle third (infrastructure
//     maintenance, diverted attention), then resumes.
//   - thaw: at half-horizon the block TTL drops to 24h jitter-free —
//     old blocks expire quickly, modeling a quiet relaxation.
var ScheduleShapes = []string{"steady", "crackdown", "lull", "thaw"}

// shapeSchedule builds one region's schedule for a named shape.
// regionSens is the region's gradient sensitivity, restored after
// temporary excursions.
func shapeSchedule(shape string, hours int, regionSens float64) (region.Schedule, error) {
	h := float64(hours)
	switch shape {
	case "steady":
		return nil, nil
	case "crackdown":
		return region.Schedule{
			{AtHours: h / 3, Kind: region.KindSensitivity, Value: 1},
			{AtHours: 2 * h / 3, Kind: region.KindSensitivity, Value: regionSens},
		}, nil
	case "lull":
		return region.Schedule{
			{AtHours: h / 3, Kind: region.KindPause},
			{AtHours: 2 * h / 3, Kind: region.KindResume},
		}, nil
	case "thaw":
		return region.Schedule{
			{AtHours: h / 2, Kind: region.KindBlockTTL, Value: 24},
		}, nil
	default:
		return nil, fmt.Errorf("unknown schedule shape %q (have %s)",
			shape, strings.Join(ScheduleShapes, ", "))
	}
}

// SpatioRow is one schedule shape's outcome over the regional gradient.
type SpatioRow struct {
	// Name is the shape name — the campaign flattener's row key, so
	// merged sweeps keep one row per shape.
	Name string

	// Global outcome.
	BlockedUserFraction float64
	EverBlockedUsers    int64
	Blocks              int
	ProbesSent          int
	Replacements        int64
	DetectionLatency    stats.Summary
	ServerLifetime      stats.Summary

	// PerRegion is the gradient breakdown, in topology order.
	PerRegion []fleet.RegionStats
}

// SpatioReport is the experiment's report: one row per schedule shape.
type SpatioReport struct {
	Config SpatioConfig
	// RegionNames are the gradient's region names with their
	// sensitivities, for rendering and row alignment.
	RegionNames []string
	Rows        []SpatioRow
}

// Spatiotemporal runs every configured schedule shape against
// independently seeded copies of the same regionally partitioned
// population. The variadic options are fleet execution options (worker
// pools, metrics sinks) applied to every run; they never change report
// bytes.
func Spatiotemporal(cfg SpatioConfig, opts ...fleet.Option) (*SpatioReport, error) {
	users := cfg.Users
	if users == 0 {
		users = 20000
	}
	ups := cfg.UsersPerServer
	if ups == 0 {
		ups = 50
	}
	hours := cfg.Hours
	if hours == 0 {
		hours = 3 * 168 // three virtual weeks
	}
	nRegions := cfg.Regions
	if nRegions == 0 {
		nRegions = 4
	}
	base := cfg.BaseSensitivity
	if base == 0 {
		base = 0.05
	}
	step := cfg.SensitivityStep
	if step == 0 {
		step = 0.3
	}
	shapes := cfg.Shapes
	if len(shapes) == 0 {
		shapes = ScheduleShapes
	}
	mix := cfg.Mix
	if len(mix) == 0 {
		mix = []fleet.ImplShare{
			{Impl: "sspython", Weight: 0.7},
			{Impl: "web", Weight: 0.3},
		}
	}

	sens := make([]float64, nRegions)
	names := make([]string, nRegions)
	for r := 0; r < nRegions; r++ {
		sens[r] = base + float64(r)*step
		if sens[r] > 1 {
			sens[r] = 1
		}
		names[r] = fmt.Sprintf("r%d-s%.2f", r, sens[r])
	}

	rep := &SpatioReport{Config: cfg, RegionNames: names}
	for i, shape := range shapes {
		topo := &region.Topology{Regions: make([]region.Region, nRegions)}
		for r := 0; r < nRegions; r++ {
			gcfg := cfg.GFW
			gcfg.Sensitivity = sens[r]
			sched, err := shapeSchedule(shape, hours, sens[r])
			if err != nil {
				return nil, fmt.Errorf("spatiotemporal: %w", err)
			}
			topo.Regions[r] = region.Region{
				Name:     names[r],
				Weight:   1,
				GFW:      &gcfg,
				Schedule: sched,
			}
		}
		fcfg := fleet.Config{
			Seed:           seedfork.Fork(cfg.Seed, "spatio.shape", int64(i)),
			Users:          users,
			UsersPerServer: ups,
			Hours:          hours,
			Shards:         cfg.Shards,
			Mix:            mix,
			GFW:            cfg.GFW,
			Regions:        topo,
		}
		fr, err := fleet.Run(fcfg, opts...)
		if err != nil {
			return nil, fmt.Errorf("spatiotemporal shape %q: %w", shape, err)
		}
		rep.Rows = append(rep.Rows, SpatioRow{
			Name:                shape,
			BlockedUserFraction: fr.BlockedUserFraction,
			EverBlockedUsers:    fr.EverBlockedUsers,
			Blocks:              fr.Blocks,
			ProbesSent:          fr.ProbesSent,
			Replacements:        fr.Replacements,
			DetectionLatency:    fr.DetectionLatency,
			ServerLifetime:      fr.ServerLifetime,
			PerRegion:           fr.PerRegion,
		})
	}
	return rep, nil
}

// Render implements Report: a blocked-user matrix (shapes × regions)
// plus per-shape cost and timing lines.
func (r *SpatioReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Spatiotemporal: %d schedule shapes × %d-region sensitivity gradient (seed %d)\n",
		len(r.Rows), len(r.RegionNames), r.Config.Seed)
	if len(r.Rows) == 0 {
		return b.String()
	}

	fmt.Fprintf(&b, "\n  %% of users ever blocked, by region:\n")
	fmt.Fprintf(&b, "  %-10s", "shape")
	for _, name := range r.RegionNames {
		fmt.Fprintf(&b, " %12s", name)
	}
	b.WriteString("\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-10s", row.Name)
		for _, rg := range row.PerRegion {
			fmt.Fprintf(&b, " %11.2f%%", 100*rg.BlockedUserFraction)
		}
		b.WriteString("\n")
	}

	b.WriteString("\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-10s blocked %5.2f%% of users, %d blocks, probes %d, median latency %s, median lifetime %s\n",
			row.Name, 100*row.BlockedUserFraction, row.Blocks, row.ProbesSent,
			stats.FormatSeconds(row.DetectionLatency.P50), stats.FormatSeconds(row.ServerLifetime.P50))
	}
	return b.String()
}

// spatioRunner registers the sweep under the "spatiotemporal" name.
// Fast scale is four shapes over a 1200-user, 12-hour gradient with
// aggressive recording so the regional contrast is visible in seconds;
// full scale leaves the config zeroed for the three-week default.
var spatioRunner = runner[SpatioConfig]{
	name: "spatiotemporal",
	desc: "regional sensitivity gradients × policy schedules: per-region blocking over weeks",
	config: func(seed int64, full bool) SpatioConfig {
		cfg := SpatioConfig{Seed: seed}
		if !full {
			cfg.Users = 1200
			cfg.UsersPerServer = 40
			cfg.Hours = 12
			cfg.GFW = gfw.Config{PoolSize: 2000, ReplayBase: 0.3}
		}
		return cfg
	},
	run: func(cfg SpatioConfig, workers int) (Report, error) {
		return Spatiotemporal(cfg, fleet.WithWorkers(workers))
	},
}
