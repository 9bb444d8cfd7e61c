// Command sslab-sweep fans one experiment out over a seed list and an
// optional parameter grid, runs the shards on a bounded worker pool,
// and reduces them into a single deterministic report: the merged JSON
// is byte-identical for any -workers value, and a killed sweep resumes
// from its JSONL checkpoint without recomputing finished shards.
//
// Usage:
//
//	sslab-sweep -experiment shadowsocks -seeds 1..8 [-workers 8]
//	            [-run-workers N] [-grid GFW.PoolSize=4000,8000]
//	            [-set Days=30] [-full] [-out DIR] [-resume] [-json]
//	            [-metrics] [-cpuprofile FILE] [-memprofile FILE] [-list]
//
// -list prints the sweepable experiments with one-line descriptions
// and exits.
//
// With -out DIR the sweep checkpoints every finished shard to
// DIR/shards.jsonl and writes DIR/merged.json at the end; re-running
// with -resume picks up where the previous run stopped. -grid may
// repeat, one axis per flag; the cross product of all axes times the
// seed list is the shard set. -json prints the merged report as JSON on
// stdout instead of the human summary.
//
// -metrics prints the engine's counter snapshot to stderr after the
// sweep; metrics never feed the merged report, so its byte-identity
// across -workers values is unaffected. -cpuprofile/-memprofile write
// pprof profiles of the whole sweep.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"sslab/internal/campaign"
	"sslab/internal/experiment"
	"sslab/internal/metrics"
	"sslab/internal/prof"
)

// listFlag collects a repeatable string flag (-grid, -set).
type listFlag []string

func (l *listFlag) String() string     { return strings.Join(*l, "; ") }
func (l *listFlag) Set(v string) error { *l = append(*l, v); return nil }

func main() {
	log.SetFlags(0)
	log.SetPrefix("sslab-sweep: ")
	var (
		expName  = flag.String("experiment", "", "experiment to sweep (one of "+strings.Join(experiment.Names(), ", ")+")")
		seedList = flag.String("seeds", "1..8", "seed list: comma-separated integers and A..B ranges")
		workers  = flag.Int("workers", 0, "worker pool size (default GOMAXPROCS); does not affect results")
		runWork  = flag.Int("run-workers", 0, "intra-run worker pool per shard for experiments that support it (fleet, armsrace, spatiotemporal; default 1); does not affect results")
		full     = flag.Bool("full", false, "paper scale instead of the fast default")
		outDir   = flag.String("out", "", "checkpoint directory (spec.json, shards.jsonl, merged.json)")
		resume   = flag.Bool("resume", false, "reuse finished shards checkpointed in -out")
		jsonOut  = flag.Bool("json", false, "print the merged report as JSON instead of the summary")
		quiet    = flag.Bool("quiet", false, "suppress the per-shard progress line")
		showMet  = flag.Bool("metrics", false, "print the engine's metrics snapshot to stderr after the sweep")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to FILE (go tool pprof format)")
		memProf  = flag.String("memprofile", "", "write a heap profile to FILE at exit")
		list     = flag.Bool("list", false, "list sweepable experiments with descriptions and exit")
		grid     listFlag
		sets     listFlag
	)
	flag.Var(&grid, "grid", "grid axis key=v1,v2,… (repeatable; cross product of axes)")
	flag.Var(&sets, "set", "fixed config override key=value (repeatable, applies to every shard)")
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

	if *expName == "" {
		log.Fatalf("-experiment is required; valid names: %s", strings.Join(experiment.Names(), ", "))
	}
	if _, ok := experiment.Lookup(*expName); !ok {
		log.Fatalf("unknown experiment %q; valid names: %s", *expName, strings.Join(experiment.Names(), ", "))
	}
	if *resume && *outDir == "" {
		log.Fatal("-resume needs -out")
	}

	seeds, err := campaign.ParseSeeds(*seedList)
	if err != nil {
		log.Fatalf("-seeds: %v", err)
	}
	spec := campaign.Spec{Experiment: *expName, Seeds: seeds, Full: *full}
	for _, s := range sets {
		p, err := campaign.ParseParam(s)
		if err != nil {
			log.Fatalf("-set: %v", err)
		}
		spec.Base = append(spec.Base, p)
	}
	for _, g := range grid {
		a, err := campaign.ParseAxis(g)
		if err != nil {
			log.Fatalf("-grid: %v", err)
		}
		spec.Grid = append(spec.Grid, a)
	}

	// Progress and ETA live here, not in internal/campaign: the engine
	// is wall-clock-free by contract (the simclock analyzer enforces
	// it), and the merged report must not depend on timing.
	start := time.Now()
	progress := func(done, total int, r campaign.ShardResult) {
		if *quiet {
			return
		}
		status := "ok"
		if r.Err != "" {
			status = "FAILED: " + r.Err
		}
		elapsed := time.Since(start)
		eta := "-"
		if done > 0 && done < total {
			remaining := time.Duration(float64(elapsed) / float64(done) * float64(total-done))
			eta = remaining.Round(time.Second).String()
		}
		fmt.Fprintf(os.Stderr, "[%d/%d] seed=%d %s eta=%s %s\n",
			done, total, r.Seed, formatParams(r.GridPoint), eta, status)
	}

	var reg *metrics.Registry
	if *showMet {
		reg = metrics.New()
	}
	rep, err := campaign.Run(spec, campaign.Options{
		Workers:    *workers,
		RunWorkers: *runWork,
		Dir:        *outDir,
		Resume:     *resume,
		OnProgress: progress,
		Metrics:    reg,
	})
	if err != nil {
		log.Fatal(err)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "sweep of %d shards finished in %s (%d failed)\n",
			rep.Shards, time.Since(start).Round(time.Millisecond), rep.Failed)
	}
	if reg != nil {
		fmt.Fprint(os.Stderr, reg.Snapshot().String())
	}

	if *jsonOut {
		b, err := rep.MarshalIndent()
		if err != nil {
			log.Fatal(err)
		}
		os.Stdout.Write(b)
		return
	}
	fmt.Print(summarize(rep))
}

func formatParams(ps []campaign.Param) string {
	if len(ps) == 0 {
		return "-"
	}
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = p.Key + "=" + p.Value
	}
	return strings.Join(parts, " ")
}

// summarize renders the merged report for terminals: one section per
// grid point, metrics as mean ± CI over the seed list.
func summarize(rep *campaign.MergedReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== sweep: %s over %d seed(s), %d shard(s), %d failed ==\n",
		rep.Experiment, len(rep.Seeds), rep.Shards, rep.Failed)
	if len(rep.Base) > 0 {
		fmt.Fprintf(&b, "base overrides: %s\n", formatParams(rep.Base))
	}
	for _, g := range rep.Groups {
		fmt.Fprintf(&b, "\n-- %s (n=%d seeds) --\n", formatParams(g.GridPoint), len(g.Seeds))
		for _, e := range g.Errors {
			fmt.Fprintf(&b, "  seed %d FAILED: %s\n", e.Seed, e.Err)
		}
		if len(g.Metrics) > 0 {
			w := 0
			for _, m := range g.Metrics {
				if len(m.Name) > w {
					w = len(m.Name)
				}
			}
			for _, m := range g.Metrics {
				fmt.Fprintf(&b, "  %-*s  mean %.6g  ci95 [%.6g, %.6g]  min %.6g  max %.6g  n=%d\n",
					w, m.Name, m.Mean, m.CILo, m.CIHi, m.Min, m.Max, m.N)
			}
		}
		for _, h := range g.Histograms {
			fmt.Fprintf(&b, "  %s: histogram, %d observations over %d bins\n", h.Name, h.Total, len(h.Counts))
		}
		for _, c := range g.CDFs {
			fmt.Fprintf(&b, "  %s: cdf n=%d min %.6g p50 %.6g p90 %.6g max %.6g\n",
				c.Name, c.N, c.Min, c.P50, c.P90, c.Max)
		}
	}
	return b.String()
}
