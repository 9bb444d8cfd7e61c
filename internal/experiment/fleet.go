package experiment

import (
	"sslab/internal/fleet"
	"sslab/internal/gfw"
)

// fleetRunner registers the population-scale workload engine
// (internal/fleet) as the "fleet" experiment. Fast scale is a
// 1500-user, 6-virtual-hour population that finishes in well under a
// second; full scale leaves the config zeroed so fleet's withDefaults
// applies the 100k-user, 24-hour population of the acceptance run.
// Config.Shards fixes the space partition (science); the workers
// argument only sizes the pool executing it.
var fleetRunner = runner[fleet.Config]{
	name: "fleet",
	desc: "population-scale user & censor workload: blocked-user curves, server survival",
	config: func(seed int64, full bool) fleet.Config {
		cfg := fleet.Config{Seed: seed}
		if !full {
			cfg.Users = 1500
			cfg.UsersPerServer = 50
			cfg.Hours = 6
			cfg.GFW = gfw.Config{PoolSize: 3000}
		}
		return cfg
	},
	run: func(cfg fleet.Config, workers int) (Report, error) {
		rep, err := fleet.Run(cfg, fleet.WithWorkers(workers))
		if err != nil {
			return nil, err
		}
		return rep, nil
	},
}
