package fleet

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"sslab/internal/netsim"
)

// Engine is a fleet run held open: every unit — a (region, shard) cell
// with its own simulator, network, censor and RNG streams — stays
// resident between RunTo calls, so a run can be advanced in stages,
// snapshotted at a quiescent boundary, and resumed later (Snapshot /
// Restore). Run wraps the whole lifecycle for callers that just want a
// Report.
//
// The execution contract is the same as Run's: the unit plan is fixed
// by Config, workers only trade wall-clock time for cores, and every
// Report byte is a function of Config alone.
type Engine struct {
	cfg   Config // post-defaults
	o     runOptions
	plan  runPlan
	units []*Fleet
	now   time.Time
	end   time.Time
	rep   *Report
}

// NewEngine validates cfg, fixes the unit plan, and builds every unit
// at virtual time zero. Options configure execution only.
func NewEngine(cfg Config, opts ...Option) (*Engine, error) {
	return newEngine(cfg, nil, opts)
}

// newEngine is the shared construction path: snap == nil builds a
// fresh engine; otherwise each unit is built structurally and then
// overwritten with its snapshot state.
func newEngine(cfg Config, snap *engineSnap, opts []Option) (*Engine, error) {
	var o runOptions
	for _, opt := range opts {
		if opt != nil {
			opt(&o)
		}
	}
	if err := validate(cfg); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	plan, err := planRun(cfg)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:   cfg,
		o:     o,
		plan:  plan,
		units: make([]*Fleet, len(plan.units)),
		now:   netsim.Epoch,
		end:   netsim.Epoch.Add(time.Duration(cfg.Hours) * time.Hour),
	}
	if snap != nil && len(snap.Units) != len(plan.units) {
		return nil, fmt.Errorf("fleet: snapshot has %d units, config plans %d", len(snap.Units), len(plan.units))
	}
	err = e.each(func(i int) error {
		e.units[i] = buildUnit(cfg, plan, plan.units[i], snap != nil)
		if snap != nil {
			if err := e.units[i].restore(&snap.Units[i], snap.Now); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if snap != nil {
		e.now = snap.Now
	}
	return e, nil
}

// each runs fn for every unit index on the engine's worker pool,
// converting panics into errors; the lowest-indexed failure wins, so
// the reported error never depends on which worker lost the race.
func (e *Engine) each(fn func(i int) error) error {
	call := func(i int) (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("panic: %v", p)
			}
		}()
		return fn(i)
	}
	n := len(e.units)
	workers := e.o.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			errs[i] = call(i)
		}
	} else {
		queue := make(chan int, n)
		for i := 0; i < n; i++ {
			queue <- i
		}
		close(queue)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := range queue {
					errs[i] = call(i)
				}
			}()
		}
		wg.Wait()
	}
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("fleet: unit %d/%d (region %q shard %d): %w",
				i, n, e.plan.regions[e.plan.units[i].region].name, e.plan.units[i].shard, err)
		}
	}
	return nil
}

// Now returns the engine's virtual time (the last RunTo target, or the
// restored snapshot's time).
func (e *Engine) Now() time.Time { return e.now }

// End returns the configured end of the run.
func (e *Engine) End() time.Time { return e.end }

// RunTo advances every unit to virtual time t (a no-op for units
// already there). Times beyond End are legal — user wake-ups and
// sampling stop at End on their own — and earlier times are a no-op:
// virtual time never runs backwards.
func (e *Engine) RunTo(t time.Time) error {
	if t.Before(e.now) {
		return nil
	}
	if err := e.each(func(i int) error {
		e.units[i].sim.RunUntil(t)
		return nil
	}); err != nil {
		return err
	}
	e.now = t
	return nil
}

// Report reduces the run to its Report: per-unit reports merge within
// each region (in unit order), regional reports merge globally (in
// region order), and — for topologies with two or more regions — the
// per-region breakdown is attached as PerRegion rows. The reduction
// observes each unit's pending block latencies exactly once, so the
// Report is computed on first call and cached; a snapshot must be
// taken before the first Report call.
func (e *Engine) Report() (*Report, error) {
	if e.rep != nil {
		return e.rep, nil
	}
	reps := make([]*Report, len(e.units))
	if err := e.each(func(i int) error {
		reps[i] = e.units[i].report()
		return nil
	}); err != nil {
		return nil, err
	}

	// Merge within each region, in unit order. Merging is exact integer
	// addition on sketches and counters, so this grouping reproduces the
	// historical flat sequential merge bit-for-bit.
	regional := make([]*Report, len(e.plan.regions))
	for i, u := range e.plan.units {
		if regional[u.region] == nil {
			regional[u.region] = reps[i]
			continue
		}
		if err := regional[u.region].Merge(reps[i]); err != nil {
			return nil, fmt.Errorf("fleet: merging unit %d into region %q: %w", i, e.plan.regions[u.region].name, err)
		}
	}

	// The per-region breakdown is computed before the global merge
	// mutates regional[0]; it only exists for genuinely regional runs,
	// so single-region reports stay byte-identical to pre-region ones.
	var perRegion []RegionStats
	if len(e.plan.regions) > 1 {
		perRegion = make([]RegionStats, len(regional))
		for r, rep := range regional {
			perRegion[r] = regionStats(e.plan.regions[r].name, rep)
		}
	}

	rep := regional[0]
	for r := 1; r < len(regional); r++ {
		if err := rep.Merge(regional[r]); err != nil {
			return nil, fmt.Errorf("fleet: merging region %q: %w", e.plan.regions[r].name, err)
		}
	}
	rep.PerRegion = perRegion

	if e.o.metrics != nil {
		for i := range e.units {
			e.o.metrics.Absorb(e.units[i].sim.Metrics.Snapshot())
		}
	}
	e.rep = rep
	return rep, nil
}
