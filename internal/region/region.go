// Package region is the spatial layer of the fleet engine: it carves
// the simulated population into named censorship regions, each with
// its own censor configuration and its own timed policy schedule. The
// paper studies one censor (the GFW) at one point in time; regional
// topologies let experiments ask the follow-on questions — how do
// detection latency and block rates differ across provinces with
// different probing sensitivity, and what happens when policy changes
// mid-run (politically sensitive periods, §6's "human factor")?
//
// A topology is declarative data: it validates, round-trips through
// JSON, and is interpreted by internal/fleet when planning a run. The
// one-region topology is the identity — engines built over it are
// byte-identical to engines built with no topology at all.
package region

import (
	"fmt"
	"math"

	"sslab/internal/gfw"
)

// Topology is a partition of the fleet into censorship regions.
// Users and their servers are assigned to regions in proportion to
// Weight; each region's censor sees only its own flows.
type Topology struct {
	Regions []Region
}

// Region is one named censorship region.
type Region struct {
	// Name labels the region in reports ("coastal", "inland", ...).
	Name string
	// Weight is the region's share of the fleet's users and servers,
	// relative to the sum over all regions. Weights must be positive;
	// they need not sum to 1.
	Weight float64
	// GFW, when non-nil, replaces the engine-level censor configuration
	// wholesale for this region's censor (the seed is still derived by
	// the engine; a Seed set here is ignored). Nil inherits the
	// engine-level configuration.
	GFW *gfw.Config `json:"GFW,omitempty"`
	// Schedule is the region's timed policy events, applied to the
	// region's censor at virtual-time boundaries. Empty means the
	// censor's configuration holds for the whole run.
	Schedule Schedule `json:"Schedule,omitempty"`
}

// Single returns the trivial one-region topology every non-regional
// run implicitly uses.
func Single() *Topology {
	return &Topology{Regions: []Region{{Name: "all", Weight: 1}}}
}

// Validate checks the topology: at least one region, unique non-empty
// names, positive finite weights, valid per-region censor overrides
// and schedules.
func (t *Topology) Validate() error {
	if t == nil || len(t.Regions) == 0 {
		return fmt.Errorf("region: topology needs at least one region")
	}
	seen := make(map[string]bool, len(t.Regions))
	for i, r := range t.Regions {
		if r.Name == "" {
			return fmt.Errorf("region: region %d has no name", i)
		}
		if seen[r.Name] {
			return fmt.Errorf("region: duplicate region name %q", r.Name)
		}
		seen[r.Name] = true
		if !(r.Weight > 0) || math.IsInf(r.Weight, 0) {
			return fmt.Errorf("region %q: weight must be positive and finite, got %v", r.Name, r.Weight)
		}
		if r.GFW != nil {
			if err := r.GFW.Validate(); err != nil {
				return fmt.Errorf("region %q: %w", r.Name, err)
			}
		}
		if err := r.Schedule.Validate(); err != nil {
			return fmt.Errorf("region %q: %w", r.Name, err)
		}
	}
	// Servers are shared out against the weights' sum: one that
	// overflows would leave every region with no servers.
	if total := t.TotalWeight(); math.IsInf(total, 0) {
		return fmt.Errorf("region: weights must have a finite sum, got %v", total)
	}
	return nil
}

// Names returns the region names in declaration order.
func (t *Topology) Names() []string {
	out := make([]string, len(t.Regions))
	for i, r := range t.Regions {
		out[i] = r.Name
	}
	return out
}

// TotalWeight returns the sum of the regions' weights.
func (t *Topology) TotalWeight() float64 {
	var sum float64
	for _, r := range t.Regions {
		sum += r.Weight
	}
	return sum
}
