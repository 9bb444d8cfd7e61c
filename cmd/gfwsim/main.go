// Command gfwsim re-runs the paper's experiments on the simulated
// substrate and prints every table and figure. With no flags it runs
// everything at a reduced scale; -full runs at the paper's scale
// (four months of virtual time — still seconds of wall-clock).
//
// Usage:
//
//	gfwsim [-seed N] [-full] [-experiment all|NAME] [-json FILE] [-dump FILE]
//	       [-cpuprofile FILE] [-memprofile FILE] [-list]
//	       [-shards N] [-snapshot-at H -snapshot-out FILE | -resume FILE]
//
// -list prints the registered experiments with one-line descriptions
// and exits.
//
// -json appends one campaign.ShardResult per experiment to FILE — the
// same JSONL schema sslab-sweep checkpoints — so single runs and sweep
// shards are interchangeable records.
//
// -snapshot-at/-snapshot-out and -resume checkpoint the fleet
// experiment: the former runs the fleet to virtual hour H and writes
// the engine snapshot instead of a report; the latter restores a
// snapshot and finishes the run. A resumed run's report is
// byte-identical to an uninterrupted one. Both require
// -experiment fleet; -shards overrides the fleet's space partition.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"sslab/internal/campaign"
	"sslab/internal/experiment"
	"sslab/internal/fleet"
	"sslab/internal/netsim"
	"sslab/internal/prof"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gfwsim: ")
	var (
		seed     = flag.Int64("seed", 1, "random seed (all results are deterministic per seed)")
		full     = flag.Bool("full", false, "run at the paper's scale instead of the fast default")
		exp      = flag.String("experiment", "all", "which experiment to run: all, or one of "+strings.Join(experiment.Names(), ", "))
		jsonOut  = flag.String("json", "", "append each experiment's report to FILE as JSONL (sslab-sweep shard schema)")
		dumpFile = flag.String("dump", "", "write the Shadowsocks experiment's probe capture to FILE as JSONL")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to FILE (go tool pprof format)")
		memProf  = flag.String("memprofile", "", "write a heap profile to FILE at exit")
		list     = flag.Bool("list", false, "list registered experiments with descriptions and exit")
		workers  = flag.Int("workers", 0, "intra-run worker pool for experiments that support it (fleet, armsrace, spatiotemporal); 0 = all cores; reports are byte-identical for any value")
		shards   = flag.Int("shards", 0, "override the fleet experiment's space-shard count (fleet only)")
		snapAt   = flag.Float64("snapshot-at", 0, "virtual hour at which to snapshot the fleet run (with -snapshot-out)")
		snapOut  = flag.String("snapshot-out", "", "write the fleet engine snapshot to FILE and exit (fleet only)")
		resume   = flag.String("resume", "", "restore a fleet engine snapshot from FILE and finish the run (fleet only)")
	)
	flag.Parse()

	if *list {
		experiment.List(os.Stdout)
		return
	}

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			log.Fatal(err)
		}
	}()

	// Validate -experiment before any simulation runs: a typo should
	// fail in milliseconds, not after a four-month virtual sweep.
	if *exp != "all" {
		if _, ok := experiment.Lookup(*exp); !ok {
			log.Fatalf("unknown experiment %q; valid names: all, %s", *exp, strings.Join(experiment.Names(), ", "))
		}
	}
	staged := *snapOut != "" || *resume != ""
	if staged && *exp != "fleet" {
		log.Fatal("-snapshot-out and -resume require -experiment fleet")
	}
	if *snapOut != "" && *snapAt <= 0 {
		log.Fatal("-snapshot-out requires a positive -snapshot-at hour")
	}
	if (*shards != 0 || *snapAt != 0) && *exp != "fleet" {
		log.Fatal("-shards and -snapshot-at apply to -experiment fleet only")
	}

	var jsonl *os.File
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			log.Fatalf("creating %s: %v", *jsonOut, err)
		}
		defer f.Close()
		jsonl = f
	}

	records := 0
	for _, r := range experiment.Runners() {
		if *exp != "all" && *exp != r.Name() {
			continue
		}
		cfg := r.Config(*seed, *full)
		if fc, ok := cfg.(*fleet.Config); ok && *shards > 0 {
			fc.Shards = *shards
		}
		var rep experiment.Report
		var err error
		if staged && r.Name() == "fleet" {
			rep, err = fleetStaged(cfg.(*fleet.Config), *workers, *snapAt, *snapOut, *resume)
			if err == nil && rep == nil {
				continue // snapshot written; nothing to report yet
			}
		} else {
			rep, err = r.Run(cfg, *workers)
		}
		if err != nil {
			log.Fatalf("%s experiment: %v", r.Name(), err)
		}
		fmt.Println(rep.Render())

		if ss, ok := rep.(*experiment.ShadowsocksReport); ok && *dumpFile != "" {
			f, err := os.Create(*dumpFile)
			if err != nil {
				log.Fatalf("creating %s: %v", *dumpFile, err)
			}
			if err := ss.Log.WriteJSON(f); err != nil {
				log.Fatalf("writing capture: %v", err)
			}
			f.Close()
			fmt.Printf("wrote %d probe records to %s\n\n", ss.Log.Len(), *dumpFile)
		}

		if jsonl != nil {
			raw, err := json.Marshal(rep)
			if err != nil {
				log.Fatalf("%s report: %v", r.Name(), err)
			}
			row := campaign.ShardResult{
				Index:      records,
				Experiment: r.Name(),
				Seed:       *seed,
				Report:     raw,
			}
			line, err := json.Marshal(row)
			if err != nil {
				log.Fatalf("%s record: %v", r.Name(), err)
			}
			if _, err := jsonl.Write(append(line, '\n')); err != nil {
				log.Fatalf("writing %s: %v", *jsonOut, err)
			}
			records++
		}
	}
	if jsonl != nil {
		fmt.Printf("wrote %d report records to %s\n", records, *jsonOut)
	}
}

// fleetStaged drives the fleet experiment through the Engine API:
// fresh from cfg, or restored from a snapshot file. In snapshot mode
// it runs to the requested virtual hour, writes the snapshot, and
// returns a nil report (the run continues in a later -resume
// invocation); otherwise it finishes the run and returns the report —
// byte-identical to an uninterrupted fleet.Run.
func fleetStaged(cfg *fleet.Config, workers int, snapAt float64, snapOut, resume string) (experiment.Report, error) {
	var e *fleet.Engine
	if resume != "" {
		data, err := os.ReadFile(resume)
		if err != nil {
			return nil, err
		}
		if e, err = fleet.Restore(data, fleet.WithWorkers(workers)); err != nil {
			return nil, err
		}
	} else {
		var err error
		if e, err = fleet.NewEngine(*cfg, fleet.WithWorkers(workers)); err != nil {
			return nil, err
		}
	}
	if snapOut != "" {
		at := netsim.Epoch.Add(time.Duration(snapAt * float64(time.Hour)))
		if err := e.RunTo(at); err != nil {
			return nil, err
		}
		data, err := e.Snapshot()
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(snapOut, data, 0o644); err != nil {
			return nil, err
		}
		fmt.Printf("wrote %d-byte fleet snapshot at virtual hour %g to %s\n\n", len(data), snapAt, snapOut)
		return nil, nil
	}
	if err := e.RunTo(e.End()); err != nil {
		return nil, err
	}
	return e.Report()
}
