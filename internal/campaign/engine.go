package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"sslab/internal/experiment"
	"sslab/internal/metrics"
)

// Options tunes one sweep run.
type Options struct {
	// Workers bounds the goroutine pool (default: GOMAXPROCS). The
	// merged report does not depend on it.
	Workers int
	// RunWorkers bounds each shard's *intra-run* worker pool, passed
	// to every runner's Run; only experiments that parallelize inside a
	// run (fleet, armsrace, spatiotemporal) use it. Zero keeps each
	// run single-threaded, so sweep- and run-level parallelism don't
	// multiply by accident. Like Workers, it never changes the merged
	// report's bytes.
	RunWorkers int
	// Dir is the checkpoint directory; empty disables checkpointing.
	Dir string
	// Resume reuses finished shard results found in Dir.
	Resume bool
	// OnProgress, when set, is called after every shard completes
	// (including shards restored from a checkpoint, reported first),
	// under the engine's lock — keep it fast. done counts completed
	// shards, total the whole sweep.
	OnProgress func(done, total int, r ShardResult)
	// RunShard overrides the registry-backed shard runner (tests).
	RunShard func(Shard) (json.RawMessage, error)
	// Metrics, when set, receives campaign.* counters (shards run,
	// failed, restored from checkpoint). Metrics never feed the merged
	// report, so the sweep's byte-identity guarantee is untouched. A nil
	// registry is valid and makes every instrument a no-op.
	Metrics *metrics.Registry
}

// Run executes the sweep and returns the merged report. Failed shards
// (error or panic) become error rows in their group; only a
// spec/checkpoint-level problem aborts the sweep itself.
func Run(spec Spec, opt Options) (*MergedReport, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	runShard := opt.RunShard
	if runShard == nil {
		if _, ok := experiment.Lookup(spec.Experiment); !ok {
			return nil, fmt.Errorf("campaign: unknown experiment %q (valid: %v)", spec.Experiment, experiment.Names())
		}
		runShard = func(s Shard) (json.RawMessage, error) { return runRegistered(spec, s, opt.RunWorkers) }
	}
	shards := spec.Shards()

	mRun := opt.Metrics.Counter("campaign.shards_run")
	mFailed := opt.Metrics.Counter("campaign.shards_failed")
	mRestored := opt.Metrics.Counter("campaign.shards_restored")

	results := make([]*ShardResult, len(shards))
	var ckpt *checkpoint
	if opt.Dir != "" {
		var err error
		ckpt, err = openCheckpoint(opt.Dir, spec, opt.Resume)
		if err != nil {
			return nil, err
		}
		defer ckpt.close()
		for _, r := range ckpt.loaded {
			if r.Index >= 0 && r.Index < len(shards) && shardMatches(shards[r.Index], r) {
				restored := r
				results[r.Index] = &restored
			}
		}
	}

	var todo []int
	done := 0
	for i := range shards {
		if results[i] == nil {
			todo = append(todo, i)
		} else {
			done++
			mRestored.Inc()
			if opt.OnProgress != nil {
				opt.OnProgress(done, len(shards), *results[i])
			}
		}
	}

	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(todo) {
		workers = len(todo)
	}

	var (
		mu     sync.Mutex
		wg     sync.WaitGroup
		queue  = make(chan int)
		ioErr  error
		setErr = func(err error) { // first checkpoint-write error wins
			if err != nil && ioErr == nil {
				ioErr = err
			}
		}
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range queue {
				res := runIsolated(shards[i], runShard)
				mRun.Inc()
				if res.Err != "" {
					mFailed.Inc()
				}
				mu.Lock()
				results[i] = &res
				if ckpt != nil {
					setErr(ckpt.append(res))
				}
				done++
				if opt.OnProgress != nil {
					opt.OnProgress(done, len(shards), res)
				}
				mu.Unlock()
			}
		}()
	}
	for _, i := range todo {
		queue <- i
	}
	close(queue)
	wg.Wait()
	if ioErr != nil {
		return nil, fmt.Errorf("campaign: checkpoint write: %v", ioErr)
	}

	merged, err := merge(spec, results)
	if err != nil {
		return nil, err
	}
	if opt.Dir != "" {
		b, err := merged.MarshalIndent()
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(opt.Dir, mergedFile), b, 0o644); err != nil {
			return nil, err
		}
	}
	return merged, nil
}

// runRegistered builds the shard's config from the registry (seed,
// scale, base overrides, then the grid point) and runs it with the
// intra-run worker bound.
func runRegistered(spec Spec, s Shard, runWorkers int) (json.RawMessage, error) {
	r, ok := experiment.Lookup(s.Experiment)
	if !ok {
		return nil, fmt.Errorf("unknown experiment %q", s.Experiment)
	}
	cfg := r.Config(s.Seed, spec.Full)
	if err := ApplyParams(cfg, spec.Base); err != nil {
		return nil, fmt.Errorf("experiment %s: %v", s.Experiment, err)
	}
	if err := ApplyParams(cfg, s.GridPoint); err != nil {
		return nil, fmt.Errorf("experiment %s: %v", s.Experiment, err)
	}
	if runWorkers <= 0 {
		runWorkers = 1 // sweep-level workers are the default parallelism
	}
	rep, err := r.Run(cfg, runWorkers)
	if err != nil {
		return nil, err
	}
	return json.Marshal(rep)
}

// runIsolated runs one shard with panic isolation: a crashing shard
// yields an error row, not a dead sweep. Only the panic value goes
// into the row (not the stack): error rows are part of the merged
// report, which must stay byte-identical across runs, and goroutine
// ids in stack traces are scheduling-dependent.
func runIsolated(s Shard, run func(Shard) (json.RawMessage, error)) (res ShardResult) {
	res = ShardResult{Index: s.Index, Experiment: s.Experiment, Seed: s.Seed, GridPoint: s.GridPoint}
	defer func() {
		if p := recover(); p != nil {
			res.Report = nil
			res.Err = fmt.Sprintf("panic: %v", p)
		}
	}()
	rep, err := run(s)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.Report = rep
	return res
}

// shardMatches guards restored results against a drifted shard list
// (spec.json equality already implies this; belt and braces).
func shardMatches(s Shard, r ShardResult) bool {
	if s.Experiment != r.Experiment || s.Seed != r.Seed || len(s.GridPoint) != len(r.GridPoint) {
		return false
	}
	for i := range s.GridPoint {
		if s.GridPoint[i] != r.GridPoint[i] {
			return false
		}
	}
	return true
}
