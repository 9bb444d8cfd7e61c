// Package campaign is the experiment-sweep engine: it fans a campaign
// spec (experiment × seed list × parameter grid) out over a bounded
// pool of workers, each running one independent simulation shard, and
// reduces the per-shard reports through order-independent mergers
// (internal/stats) into a single aggregate report that is byte-identical
// regardless of worker count or scheduling order.
//
// The paper's own measurements are single runs of a stochastic system;
// Ensafi et al. and Winter & Lindskog both show that GFW behaviour
// varies across vantage points and time, so any number this repository
// reports should carry seed variance. The simulator is deterministic
// per seed and shares no state between runs, which makes a sweep
// embarrassingly parallel: shard i's report depends only on its
// (seed, parameters) cell, never on scheduling.
//
// Determinism contract:
//
//   - shard seeds come from the spec's seed list; everything a shard
//     derives from them goes through internal/seedfork, so grid cells
//     cannot collide;
//   - per-shard reports are JSON of the experiment's report struct
//     (maps marshal with sorted keys);
//   - the merge sorts shards by index and reduces with associative,
//     commutative folds; bootstrap CIs draw from PRNGs seeded by
//     (group, metric name) — never by worker or completion order;
//   - no wall-clock anywhere in this package (the simclock analyzer
//     enforces it): progress timing and ETAs belong to callers such as
//     cmd/sslab-sweep.
//
// Shards checkpoint their finished reports as JSONL (one ShardResult
// per line), so an interrupted sweep resumes without recomputation,
// and a panicking shard records an error row instead of killing the
// sweep.
package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// Param is one configuration override, applied to the experiment
// config through its JSON form. Key is a dotted path of exported field
// names ("GFW.Sensitivity", "GFW.PoolSize"); Value is parsed as JSON when
// possible (numbers, booleans, arrays) and as a plain string otherwise.
type Param struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Axis is one grid dimension: a key swept over several values.
type Axis struct {
	Key    string   `json:"key"`
	Values []string `json:"values"`
}

// Spec describes a sweep: one experiment, a seed list, optional fixed
// overrides (Base) and an optional parameter grid whose cross product
// multiplies the seed list.
type Spec struct {
	Experiment string  `json:"experiment"`
	Seeds      []int64 `json:"seeds"`
	// Full selects paper scale; false is the fast gfwsim scale.
	Full bool `json:"full,omitempty"`
	// Base overrides apply to every shard (and are not part of the grid).
	Base []Param `json:"base,omitempty"`
	// Grid axes; the cross product of their values defines the groups.
	Grid []Axis `json:"grid,omitempty"`
}

// Shard is one unit of work: one grid cell run under one seed.
type Shard struct {
	Index      int     `json:"index"`
	Experiment string  `json:"experiment"`
	Seed       int64   `json:"seed"`
	GridPoint  []Param `json:"grid_point,omitempty"`
}

// ShardResult is the checkpointed outcome of one shard: either the
// experiment report as raw JSON, or the error that stopped it. This is
// also the schema cmd/gfwsim -json emits, so single runs and sweeps
// produce interchangeable records.
type ShardResult struct {
	Index      int             `json:"index"`
	Experiment string          `json:"experiment"`
	Seed       int64           `json:"seed"`
	GridPoint  []Param         `json:"grid_point,omitempty"`
	Err        string          `json:"err,omitempty"`
	Report     json.RawMessage `json:"report,omitempty"`
}

func (s Spec) validate() error {
	if s.Experiment == "" {
		return fmt.Errorf("campaign: spec has no experiment")
	}
	if len(s.Seeds) == 0 {
		return fmt.Errorf("campaign: spec has no seeds")
	}
	seen := map[int64]bool{}
	for _, sd := range s.Seeds {
		if seen[sd] {
			return fmt.Errorf("campaign: duplicate seed %d", sd)
		}
		seen[sd] = true
	}
	for _, a := range s.Grid {
		if a.Key == "" || len(a.Values) == 0 {
			return fmt.Errorf("campaign: grid axis %q needs a key and at least one value", a.Key)
		}
	}
	return nil
}

// gridPoints enumerates the grid's cross product in odometer order
// (first axis slowest). An empty grid yields one empty point.
func (s Spec) gridPoints() [][]Param {
	points := [][]Param{nil}
	for _, axis := range s.Grid {
		var next [][]Param
		for _, p := range points {
			for _, v := range axis.Values {
				cell := append(append([]Param(nil), p...), Param{Key: axis.Key, Value: v})
				next = append(next, cell)
			}
		}
		points = next
	}
	return points
}

// Shards enumerates the sweep's work units deterministically:
// grid-major, seed-minor, indices dense from zero. The same spec
// always yields the same shard list — resume depends on it.
func (s Spec) Shards() []Shard {
	var out []Shard
	for _, gp := range s.gridPoints() {
		for _, seed := range s.Seeds {
			out = append(out, Shard{
				Index:      len(out),
				Experiment: s.Experiment,
				Seed:       seed,
				GridPoint:  gp,
			})
		}
	}
	return out
}

// ParseSeeds parses a seed-list flag: comma-separated terms, each a
// single integer or an inclusive A..B range ("1..8", "1,2,9..12").
func ParseSeeds(s string) ([]int64, error) {
	const maxSeeds = 100000
	var out []int64
	for _, term := range strings.Split(s, ",") {
		term = strings.TrimSpace(term)
		if term == "" {
			return nil, fmt.Errorf("empty seed term in %q", s)
		}
		if lo, hi, ok := strings.Cut(term, ".."); ok {
			a, err := strconv.ParseInt(strings.TrimSpace(lo), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("seed range %q: %v", term, err)
			}
			b, err := strconv.ParseInt(strings.TrimSpace(hi), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("seed range %q: %v", term, err)
			}
			if b < a {
				return nil, fmt.Errorf("seed range %q is reversed", term)
			}
			if b-a >= maxSeeds {
				return nil, fmt.Errorf("seed range %q has more than %d seeds", term, maxSeeds)
			}
			for v := a; v <= b; v++ {
				out = append(out, v)
			}
			continue
		}
		v, err := strconv.ParseInt(term, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("seed %q: %v", term, err)
		}
		out = append(out, v)
	}
	if len(out) > maxSeeds {
		return nil, fmt.Errorf("%d seeds exceeds the %d cap", len(out), maxSeeds)
	}
	return out, nil
}

// ParseAxis parses a -grid flag value "key=v1,v2,…".
func ParseAxis(s string) (Axis, error) {
	key, vals, ok := strings.Cut(s, "=")
	if !ok || key == "" || vals == "" {
		return Axis{}, fmt.Errorf("grid axis %q: want key=v1,v2,…", s)
	}
	a := Axis{Key: key}
	for _, v := range strings.Split(vals, ",") {
		if v = strings.TrimSpace(v); v != "" {
			a.Values = append(a.Values, v)
		}
	}
	if len(a.Values) == 0 {
		return Axis{}, fmt.Errorf("grid axis %q has no values", s)
	}
	return a, nil
}

// ParseParam parses a -set flag value "key=value".
func ParseParam(s string) (Param, error) {
	key, val, ok := strings.Cut(s, "=")
	if !ok || key == "" {
		return Param{}, fmt.Errorf("param %q: want key=value", s)
	}
	return Param{Key: key, Value: val}, nil
}

// ApplyParams applies overrides to cfg (a pointer to an experiment
// config struct) through a JSON round trip, so the engine can drive
// any registered experiment without knowing its config type. Each key
// is a dotted path of exported fields. Paths may descend into fields
// the zero config elides from its JSON form (omitempty pointers such
// as an experiment's Impair profile): missing intermediates are
// created on the way down. Typos still fail loudly — the final decode
// back into cfg rejects unknown fields.
func ApplyParams(cfg any, params []Param) error {
	if len(params) == 0 {
		return nil
	}
	b, err := json.Marshal(cfg)
	if err != nil {
		return fmt.Errorf("campaign: marshal config: %v", err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		return fmt.Errorf("campaign: config is not a JSON object: %v", err)
	}
	for _, p := range params {
		if err := setPath(m, p.Key, strings.Split(p.Key, "."), p.Value); err != nil {
			return err
		}
		// Strict-decode after every override, not once at the end, so a
		// failure names the parameter that caused it — the full dotted
		// path and value, not just the leaf field the decoder rejects.
		b, err = json.Marshal(m)
		if err != nil {
			return err
		}
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.DisallowUnknownFields()
		if err := dec.Decode(cfg); err != nil {
			return fmt.Errorf("campaign: parameter %s=%s does not fit %T: %v", p.Key, p.Value, cfg, err)
		}
	}
	return nil
}

// setPath walks the dotted path and sets the leaf, creating missing
// intermediate objects as it goes (fields a zero config elides via
// omitempty/omitzero are absent from the marshaled map, not invalid).
// Misspelled names are caught by ApplyParams' strict final decode.
func setPath(m map[string]any, full string, path []string, value string) error {
	key := path[0]
	if len(path) == 1 {
		m[key] = parseValue(value)
		return nil
	}
	sub, ok := m[key].(map[string]any)
	if !ok {
		if cur, exists := m[key]; exists && cur != nil {
			return fmt.Errorf("campaign: %q: %q is not a nested object", full, key)
		}
		sub = map[string]any{}
		m[key] = sub
	}
	return setPath(sub, full, path[1:], value)
}

// parseValue interprets the override as JSON when it parses (numbers,
// booleans, arrays, objects) and as a plain string otherwise, so
// `-grid GFW.PoolSize=4000,8000` and `-set OnWindows=[[60,110]]` both
// work without per-type flag plumbing.
func parseValue(s string) any {
	var v any
	if err := json.Unmarshal([]byte(s), &v); err == nil {
		return v
	}
	return s
}
