package experiment

import (
	"fmt"
	"io"
	"sort"

	"sslab/internal/gfw"
)

// Report is the interface every experiment report satisfies: a
// terminal rendering of the paper artifact(s). Reports additionally
// marshal to JSON with exported fields only, which is what the sweep
// engine (internal/campaign) checkpoints and reduces.
type Report interface {
	Render() string
}

// Runner is the uniform entry point the registry exposes for each of
// the ten experiments, so cmd/gfwsim and the campaign engine can drive
// any of them generically.
type Runner interface {
	// Name is the registry key (the -experiment flag value).
	Name() string
	// Description is a one-line summary of what the experiment
	// reproduces, shown by the -list flag of cmd/gfwsim and
	// cmd/sslab-sweep.
	Description() string
	// Config returns a pointer to a fresh config for the experiment at
	// fast (the historical cmd/gfwsim default) or full (paper) scale,
	// with all stochastic state derived from seed. The concrete type is
	// a plain exported struct, so it (de)serializes via encoding/json;
	// the campaign engine overrides fields through that round trip.
	Config(seed int64, full bool) any
	// Run executes the experiment on a config of the type Config
	// returns (pointer or value — Run normalizes). workers bounds the
	// intra-run worker pool of experiments that parallelize inside a
	// single run (the fleet's space shards, the arms race's chains of
	// fleets) and is ignored by the rest; workers <= 0 selects the
	// default (GOMAXPROCS). Intra-run workers are execution policy, so
	// the report is byte-identical for every value.
	Run(cfg any, workers int) (Report, error)
}

// runner implements Runner for one experiment via typed closures.
type runner[C any] struct {
	name   string
	desc   string
	config func(seed int64, full bool) C
	run    func(cfg C, workers int) (Report, error)
}

func (r runner[C]) Name() string { return r.name }

func (r runner[C]) Description() string { return r.desc }

func (r runner[C]) Config(seed int64, full bool) any {
	c := r.config(seed, full)
	return &c
}

func (r runner[C]) Run(cfg any, workers int) (Report, error) {
	switch c := cfg.(type) {
	case C:
		return r.run(c, workers)
	case *C:
		return r.run(*c, workers)
	default:
		return nil, fmt.Errorf("experiment %s: config type %T, want %T", r.name, cfg, new(C))
	}
}

// Table1Config exists so Table 1 fits the Runner shape; the timeline
// has no parameters.
type Table1Config struct{}

// runners is the registry, in cmd/gfwsim's traditional output order.
// The fast-scale values are the long-standing `gfwsim` (no -full)
// defaults; full scale leaves the config zeroed so each experiment's
// withDefaults applies the paper-scale numbers.
var runners = []Runner{
	runner[Table1Config]{
		name:   "table1",
		desc:   "the paper's active-probing experiment timeline (Table 1)",
		config: func(int64, bool) Table1Config { return Table1Config{} },
		run:    func(Table1Config, int) (Report, error) { return Table1(), nil },
	},
	runner[ShadowsocksConfig]{
		name: "shadowsocks",
		desc: "months of GFW probing against live Shadowsocks pairs and a control host (§4)",
		config: func(seed int64, full bool) ShadowsocksConfig {
			cfg := ShadowsocksConfig{Seed: seed}
			if !full {
				cfg.Days = 20
				cfg.ConnsPerPairPerHour = 80
				cfg.GFW = gfw.Config{PoolSize: 6000}
			}
			return cfg
		},
		run: func(cfg ShadowsocksConfig, _ int) (Report, error) { return ShadowsocksExperiment(cfg) },
	},
	runner[SinkConfig]{
		name: "sink",
		desc: "sink-server probe-harvesting campaigns, Exps 1.a/1.b/2/3 (Table 4)",
		config: func(seed int64, full bool) SinkConfig {
			cfg := SinkConfig{Seed: seed}
			if !full {
				cfg.Hours = 80
				cfg.ConnsPerHour = 2000
				cfg.GFW = gfw.Config{PoolSize: 4000}
			}
			return cfg
		},
		run: func(cfg SinkConfig, _ int) (Report, error) { return SinkExperiments(cfg) },
	},
	runner[BrdgrdConfig]{
		name: "brdgrd",
		desc: "brdgrd window-shrinking toggled on and off against a control pair (§7.1)",
		config: func(seed int64, full bool) BrdgrdConfig {
			cfg := BrdgrdConfig{Seed: seed}
			if !full {
				cfg.Hours = 200
				cfg.OnWindows = [][2]int{{60, 110}, {150, 180}}
				cfg.GFW = gfw.Config{PoolSize: 4000}
			}
			return cfg
		},
		run: func(cfg BrdgrdConfig, _ int) (Report, error) { return BrdgrdExperiment(cfg) },
	},
	runner[BlockingConfig]{
		name: "blocking",
		desc: "which implementations get blocked: replay-serving vs replay-defended (§6)",
		config: func(seed int64, full bool) BlockingConfig {
			cfg := BlockingConfig{Seed: seed}
			if !full {
				cfg.Days = 20
				cfg.GFW = gfw.Config{PoolSize: 4000}
			}
			return cfg
		},
		run: func(cfg BlockingConfig, _ int) (Report, error) { return BlockingExperiment(cfg) },
	},
	runner[FPStudyConfig]{
		name: "fpstudy",
		desc: "passive-detector false positives on web, VPN-like and random traffic (§5)",
		config: func(seed int64, full bool) FPStudyConfig {
			cfg := FPStudyConfig{Seed: seed}
			if !full {
				cfg.FlowsPerKind = 40000
				cfg.GFW = gfw.Config{PoolSize: 3000}
			}
			return cfg
		},
		run: func(cfg FPStudyConfig, _ int) (Report, error) { return FPStudy(cfg) },
	},
	runner[BanStudyConfig]{
		name: "banstudy",
		desc: "prober ban list evaluated by replaying a sink campaign's probe stream (§7.2)",
		config: func(seed int64, full bool) BanStudyConfig {
			cfg := BanStudyConfig{Seed: seed}
			if !full {
				cfg.Triggers = 120000
				cfg.GFW = gfw.Config{PoolSize: 4000}
			}
			return cfg
		},
		run: func(cfg BanStudyConfig, _ int) (Report, error) { return BanStudy(cfg) },
	},
	runner[MimicStudyConfig]{
		name: "mimicstudy",
		desc: "server-side probe-response mimicry, four-cell defense study",
		config: func(seed int64, full bool) MimicStudyConfig {
			cfg := MimicStudyConfig{Seed: seed}
			if !full {
				cfg.Triggers = 60000
				cfg.GFW = gfw.Config{PoolSize: 3000}
			}
			return cfg
		},
		run: func(cfg MimicStudyConfig, _ int) (Report, error) { return MimicStudy(cfg) },
	},
	runner[ProbeCostConfig]{
		name: "probecost",
		desc: "SPRT probes-to-confirmation cost for the censor per configuration",
		config: func(seed int64, full bool) ProbeCostConfig {
			cfg := ProbeCostConfig{Seed: seed, Trials: 100}
			if !full {
				cfg.Trials = 50
			}
			return cfg
		},
		run: func(cfg ProbeCostConfig, _ int) (Report, error) { return ProbeCost(cfg) },
	},
	runner[MatrixConfig]{
		name: "matrix",
		desc: "probe-type × implementation reaction matrices (Figs 10a/10b, Table 5)",
		config: func(seed int64, full bool) MatrixConfig {
			cfg := MatrixConfig{Seed: seed, Trials: 200}
			if !full {
				cfg.Trials = 60
			}
			return cfg
		},
		run: func(cfg MatrixConfig, _ int) (Report, error) { return ReactionMatrices(cfg) },
	},
	runner[RobustnessConfig]{
		name: "robustness",
		desc: "detection verdicts under link-impairment grids (loss × jitter)",
		config: func(seed int64, full bool) RobustnessConfig {
			cfg := RobustnessConfig{Seed: seed}
			if !full {
				// 2×2 grid at compact scales: enough to exercise the
				// impaired path and the verdicts without full sweeps.
				cfg.Loss = []float64{0, 0.02}
				cfg.JitterMs = []int{0, 50}
				cfg.Days = 2
				cfg.Hours = 20
				cfg.GFW = gfw.Config{PoolSize: 2000}
			}
			return cfg
		},
		run: func(cfg RobustnessConfig, _ int) (Report, error) { return Robustness(cfg) },
	},
	fleetRunner,
	armsraceRunner,
	spatioRunner,
}

// Runners returns the registry in presentation order.
func Runners() []Runner {
	return append([]Runner(nil), runners...)
}

// List prints the registry in presentation order, one aligned
// "name  description" line per experiment (the CLIs' -list output).
func List(w io.Writer) {
	width := 0
	for _, r := range runners {
		width = max(width, len(r.Name()))
	}
	for _, r := range runners {
		fmt.Fprintf(w, "%-*s  %s\n", width, r.Name(), r.Description())
	}
}

// Lookup returns the runner registered under name.
func Lookup(name string) (Runner, bool) {
	for _, r := range runners {
		if r.Name() == name {
			return r, true
		}
	}
	return nil, false
}

// Names returns the registered experiment names, sorted, for flag
// validation messages.
func Names() []string {
	out := make([]string, len(runners))
	for i, r := range runners {
		out[i] = r.Name()
	}
	sort.Strings(out)
	return out
}
