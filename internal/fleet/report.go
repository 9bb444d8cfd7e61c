package fleet

import (
	"errors"
	"fmt"
	"strings"

	"sslab/internal/gfw"
	"sslab/internal/stats"
)

// ErrUnmergeableReport marks a Report that cannot participate in Merge
// because its backing quantile sketches are gone. The sketches are
// unexported (the campaign flattener walks the Report's JSON, and raw
// sketch state would pollute the flattened metric set), so any Report
// that has passed through JSON — or was zero-constructed rather than
// produced by a run — trips this. Test with errors.Is.
var ErrUnmergeableReport = errors.New("report has no backing sketches (restored from JSON?)")

// Report is the population-scale reduction of one fleet run. Every
// field is a scalar, a quantile digest, or a bucketed series — the
// campaign engine's generic flattener turns the scalars and digests
// into mean ± CI metrics across seeds and unions the series.
type Report struct {
	Config Config

	Users   int
	Servers int

	// Engine totals.
	Wakeups int64
	Flows   int64

	// Censor totals.
	Triggers         int
	PayloadsRecorded int
	ProbesSent       int
	Blocks           int

	// Population outcomes.
	EverBlockedUsers    int64
	BlockedUserFraction float64
	BlockedAtEnd        int64
	Replacements        int64

	// DetectionLatency is block time − endpoint activation, in seconds.
	DetectionLatency stats.Summary
	// ServerLifetime is endpoint activation → first user-observed
	// failure, in seconds, over epochs that ended in replacement
	// (epochs alive at run end are censored and excluded).
	ServerLifetime stats.Summary
	// MedianWakeGapS is the sketch estimate of the median wake-up gap —
	// a model diagnostic (should track 60·ln2/PeakFlowsPerHour minutes).
	MedianWakeGapS float64

	// BucketMin is the width of the series buckets, minutes.
	BucketMin int
	// BlockedCurve samples the currently-cut-off user count per bucket.
	BlockedCurve []int64
	// ProbeLoad counts probes the censor sent per bucket.
	ProbeLoad []int64
	// FlowsPerBucket counts genuine client flows per bucket.
	FlowsPerBucket stats.TimeSeries

	// PerImpl breaks population outcomes down by server implementation,
	// in mix order. The campaign flattener keys these rows by Name.
	PerImpl []ImplStats `json:",omitempty"`
	// StageRecordings attributes the censor's recorded payloads to the
	// detector stage that claimed each flow, in chain order.
	StageRecordings []gfw.StageCount `json:",omitempty"`
	// PerRegion breaks the population outcome down by censorship region,
	// in topology order. Only present for runs with two or more regions;
	// single-region reports are byte-identical to pre-region ones.
	PerRegion []RegionStats `json:",omitempty"`

	// Mergeable backing sketches for the Summary fields above. They are
	// unexported on purpose: the campaign flattener walks the Report's
	// JSON, and raw sketch state would pollute the flattened metric set.
	// Reports restored from JSON lose them, so Merge only works on
	// in-memory Reports (which is all the shard reduction needs).
	latQ  *stats.Quantile
	lifeQ *stats.Quantile
	gapQ  *stats.Quantile
}

// Merge folds another shard's Report into r, leaving r the Report of
// the combined population: counters and curves add, the quantile
// sketches behind DetectionLatency/ServerLifetime/MedianWakeGapS merge
// exactly (bucket counts add), and the derived fields (fractions,
// summaries) are recomputed from the merged state. Merging is
// associative and commutative up to r.Config, which keeps the
// receiver's value; both Reports must come from the same Config (same
// bucket width, mix, and detector chain). Reports restored from JSON
// cannot merge — their backing sketches are gone.
func (r *Report) Merge(o *Report) error {
	if o == nil {
		return nil
	}
	if r.latQ == nil || r.lifeQ == nil || r.gapQ == nil ||
		o.latQ == nil || o.lifeQ == nil || o.gapQ == nil {
		return fmt.Errorf("fleet: %w", ErrUnmergeableReport)
	}
	if r.BucketMin != o.BucketMin {
		return fmt.Errorf("fleet: merging reports with bucket widths %d and %d min", r.BucketMin, o.BucketMin)
	}
	if len(r.PerImpl) != len(o.PerImpl) {
		return fmt.Errorf("fleet: merging reports with %d and %d implementations", len(r.PerImpl), len(o.PerImpl))
	}
	for k := range r.PerImpl {
		if r.PerImpl[k].Name != o.PerImpl[k].Name {
			return fmt.Errorf("fleet: merging reports with mixes %q and %q at row %d",
				r.PerImpl[k].Name, o.PerImpl[k].Name, k)
		}
	}
	if len(r.StageRecordings) != len(o.StageRecordings) {
		return fmt.Errorf("fleet: merging reports with %d and %d detector stages",
			len(r.StageRecordings), len(o.StageRecordings))
	}
	for k := range r.StageRecordings {
		if r.StageRecordings[k].Name != o.StageRecordings[k].Name {
			return fmt.Errorf("fleet: merging reports with stages %q and %q at position %d",
				r.StageRecordings[k].Name, o.StageRecordings[k].Name, k)
		}
	}

	r.Users += o.Users
	r.Servers += o.Servers
	r.Wakeups += o.Wakeups
	r.Flows += o.Flows
	r.Triggers += o.Triggers
	r.PayloadsRecorded += o.PayloadsRecorded
	r.ProbesSent += o.ProbesSent
	r.Blocks += o.Blocks
	r.EverBlockedUsers += o.EverBlockedUsers
	r.BlockedAtEnd += o.BlockedAtEnd
	r.Replacements += o.Replacements

	if err := r.latQ.Merge(o.latQ); err != nil {
		return err
	}
	if err := r.lifeQ.Merge(o.lifeQ); err != nil {
		return err
	}
	if err := r.gapQ.Merge(o.gapQ); err != nil {
		return err
	}
	r.BlockedCurve = stats.AddInt64s(r.BlockedCurve, o.BlockedCurve)
	r.ProbeLoad = stats.AddInt64s(r.ProbeLoad, o.ProbeLoad)
	if err := r.FlowsPerBucket.Merge(&o.FlowsPerBucket); err != nil {
		return err
	}
	for k := range r.PerImpl {
		r.PerImpl[k].Users += o.PerImpl[k].Users
		r.PerImpl[k].Servers += o.PerImpl[k].Servers
		r.PerImpl[k].EverBlockedUsers += o.PerImpl[k].EverBlockedUsers
		r.PerImpl[k].Blocks += o.PerImpl[k].Blocks
		r.PerImpl[k].Fraction = 0
		if r.PerImpl[k].Users > 0 {
			r.PerImpl[k].Fraction = float64(r.PerImpl[k].EverBlockedUsers) / float64(r.PerImpl[k].Users)
		}
	}
	for k := range r.StageRecordings {
		r.StageRecordings[k].Recorded += o.StageRecordings[k].Recorded
	}
	// Regions are disjoint populations, so per-region rows concatenate.
	r.PerRegion = append(r.PerRegion, o.PerRegion...)

	// Derived views of the merged state.
	r.DetectionLatency = r.latQ.Summarize()
	r.ServerLifetime = r.lifeQ.Summarize()
	r.MedianWakeGapS = r.gapQ.Quantile(0.5)
	r.BlockedUserFraction = 0
	if r.Users > 0 {
		r.BlockedUserFraction = float64(r.EverBlockedUsers) / float64(r.Users)
	}
	return nil
}

// RegionStats is one region's slice of the population outcome: the
// same headline numbers as the global Report, restricted to the users
// and servers the topology placed under that region's censor. The
// campaign flattener keys these rows by Name.
type RegionStats struct {
	Name    string
	Users   int
	Servers int

	Wakeups    int64
	Flows      int64
	ProbesSent int
	Blocks     int

	EverBlockedUsers    int64
	BlockedUserFraction float64
	BlockedAtEnd        int64
	Replacements        int64

	DetectionLatency stats.Summary
	ServerLifetime   stats.Summary
}

// regionStats projects a (regionally merged) Report onto its RegionStats row.
func regionStats(name string, rep *Report) RegionStats {
	return RegionStats{
		Name:                name,
		Users:               rep.Users,
		Servers:             rep.Servers,
		Wakeups:             rep.Wakeups,
		Flows:               rep.Flows,
		ProbesSent:          rep.ProbesSent,
		Blocks:              rep.Blocks,
		EverBlockedUsers:    rep.EverBlockedUsers,
		BlockedUserFraction: rep.BlockedUserFraction,
		BlockedAtEnd:        rep.BlockedAtEnd,
		Replacements:        rep.Replacements,
		DetectionLatency:    rep.DetectionLatency,
		ServerLifetime:      rep.ServerLifetime,
	}
}

// ImplStats is the per-implementation slice of the population outcome.
type ImplStats struct {
	Name    string
	Users   int64
	Servers int64
	// EverBlockedUsers counts this implementation's users that observed
	// blocking at least once; Fraction normalizes by its user count.
	EverBlockedUsers int64
	Fraction         float64
	// Blocks counts endpoint block events against this implementation —
	// for the web implementation these are false positives.
	Blocks int64
}

// report reduces the finished run.
func (f *Fleet) report() *Report {
	// Resolve block events to detection latencies and per-impl blocks
	// against endpoint activation epochs (both O(blocks); no per-flow
	// state involved).
	implBlocks := make([]int64, len(f.implNames))
	for _, ev := range f.gfw.BlockEvents {
		if e, ok := f.epochs[ev.Server]; ok {
			f.latencies.Observe(ev.Time.Sub(e.at).Seconds())
			implBlocks[e.impl]++
		}
	}
	perImpl := make([]ImplStats, len(f.implNames))
	for k, name := range f.implNames {
		perImpl[k] = ImplStats{
			Name:             name,
			Users:            f.implUsers[k],
			Servers:          f.implServers[k],
			EverBlockedUsers: f.implEver[k],
			Blocks:           implBlocks[k],
		}
		if f.implUsers[k] > 0 {
			perImpl[k].Fraction = float64(f.implEver[k]) / float64(f.implUsers[k])
		}
	}
	r := &Report{
		Config:           f.cfg,
		Users:            len(f.users), // this shard's slice; Merge restores the population total
		Servers:          len(f.servers),
		Wakeups:          f.wakeups,
		Flows:            f.flows,
		Triggers:         f.gfw.Triggers,
		PayloadsRecorded: f.gfw.PayloadsRecorded,
		ProbesSent:       f.gfw.ProbesSent,
		Blocks:           len(f.gfw.BlockEvents),
		EverBlockedUsers: f.everBlocked,
		BlockedAtEnd:     f.blockedNow,
		Replacements:     f.replacements,
		DetectionLatency: f.latencies.Summarize(),
		ServerLifetime:   f.lifetimes.Summarize(),
		MedianWakeGapS:   f.gapQ.Quantile(0.5),
		BucketMin:        f.cfg.BucketMin,
		BlockedCurve:     f.blockedCurve,
		ProbeLoad:        f.probeLoad,
		FlowsPerBucket:   *f.flowsTS,
		PerImpl:          perImpl,
		StageRecordings:  f.gfw.StageRecordings(),
		latQ:             f.latencies,
		lifeQ:            f.lifetimes,
		gapQ:             f.gapQ,
	}
	if len(f.users) > 0 {
		r.BlockedUserFraction = float64(f.everBlocked) / float64(len(f.users))
	}
	return r
}

func ints(v []int64) []int {
	out := make([]int, len(v))
	for i, x := range v {
		out[i] = int(x)
	}
	return out
}

// Render implements experiment.Report.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fleet: %d users on %d servers, %dh virtual (seed %d)\n",
		r.Users, r.Servers, r.Config.Hours, r.Config.Seed)
	fmt.Fprintf(&b, "  wake-ups %d, flows %d (median gap %s)\n",
		r.Wakeups, r.Flows, stats.FormatSeconds(r.MedianWakeGapS))
	fmt.Fprintf(&b, "  censor: triggers %d, recorded %d, probes %d, block events %d\n",
		r.Triggers, r.PayloadsRecorded, r.ProbesSent, r.Blocks)
	fmt.Fprintf(&b, "  users ever blocked: %d (%.2f%%), still cut off at end: %d\n",
		r.EverBlockedUsers, 100*r.BlockedUserFraction, r.BlockedAtEnd)
	fmt.Fprintf(&b, "  servers replaced: %d\n", r.Replacements)
	for _, im := range r.PerImpl {
		fmt.Fprintf(&b, "    %-13s %6d users / %4d servers: %5.2f%% ever blocked, %d blocks\n",
			im.Name, im.Users, im.Servers, 100*im.Fraction, im.Blocks)
	}
	for _, sc := range r.StageRecordings {
		fmt.Fprintf(&b, "    stage %-15s recorded %d\n", sc.Name, sc.Recorded)
	}
	for _, rg := range r.PerRegion {
		fmt.Fprintf(&b, "  region %-10s %6d users / %4d servers: %5.2f%% ever blocked, %d blocks, median latency %s\n",
			rg.Name, rg.Users, rg.Servers, 100*rg.BlockedUserFraction, rg.Blocks,
			stats.FormatSeconds(rg.DetectionLatency.P50))
	}
	if r.DetectionLatency.N > 0 {
		fmt.Fprintf(&b, "  detection latency: p25 %s, median %s, p90 %s (n=%d)\n",
			stats.FormatSeconds(r.DetectionLatency.P25), stats.FormatSeconds(r.DetectionLatency.P50),
			stats.FormatSeconds(r.DetectionLatency.P90), r.DetectionLatency.N)
	}
	if r.ServerLifetime.N > 0 {
		fmt.Fprintf(&b, "  server lifetime (replaced epochs): median %s, p90 %s (n=%d)\n",
			stats.FormatSeconds(r.ServerLifetime.P50), stats.FormatSeconds(r.ServerLifetime.P90), r.ServerLifetime.N)
	}
	if len(r.BlockedCurve) > 0 {
		fmt.Fprintf(&b, "  blocked users over time:  %s\n", stats.Sparkline(ints(r.BlockedCurve), 1))
	}
	if len(r.ProbeLoad) > 0 {
		fmt.Fprintf(&b, "  prober load over time:    %s\n", stats.Sparkline(ints(r.ProbeLoad), 1))
	}
	if len(r.FlowsPerBucket.Counts) > 0 {
		fmt.Fprintf(&b, "  client flows over time:   %s\n", stats.Sparkline(r.FlowsPerBucket.Ints(), 1))
	}
	return b.String()
}
