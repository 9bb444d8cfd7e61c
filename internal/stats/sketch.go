// Streaming sketches for population-scale runs: a fleet simulating 10⁵+
// users cannot afford to materialize per-flow or per-event records just
// to report distributions at the end. The two types here keep O(1) or
// O(log range) state per metric:
//
//   - Quantile: a mergeable log-bucketed quantile sketch (DDSketch-style
//     relative-accuracy guarantee), for distributions reported across
//     sweep shards.
//   - TimeSeries: fixed-width mergeable event counters over virtual
//     time, for curves (flows, probe load) that must add across shards.

package stats

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Quantile is a mergeable streaming quantile sketch over non-negative
// values. Values are assigned to logarithmic buckets of ratio
// γ = (1+α)/(1−α), which bounds the relative error of any reported
// quantile by α (plus the error of the min/max clamp at the extremes).
// Merge is exact (bucket counts add), so it is associative and
// commutative — the property the campaign engine's shard reductions
// require. The zero value is unusable; construct with NewQuantile.
type Quantile struct {
	// Alpha is the relative-accuracy target. Fixed at construction;
	// only sketches with equal Alpha merge.
	Alpha float64
	// Buckets maps bucket index ⌈log_γ x⌉ to its count.
	Buckets map[int]int64
	// Zeros counts observations ≤ 0 (clamped to zero).
	Zeros int64
	// Total is the observation count.
	Total int64
	// Lo and Hi are the exact extremes, used to clamp tail quantiles.
	Lo, Hi float64

	// logGamma caches log γ; recomputed on demand after JSON decoding.
	logGamma float64
}

// NewQuantile returns a sketch with relative accuracy alpha
// (0 < alpha < 1); alpha <= 0 selects the 1% default.
func NewQuantile(alpha float64) *Quantile {
	if alpha <= 0 {
		alpha = 0.01
	}
	return &Quantile{Alpha: alpha, Buckets: map[int]int64{}}
}

func (s *Quantile) gammaLog() float64 {
	if s.logGamma == 0 {
		s.logGamma = math.Log((1 + s.Alpha) / (1 - s.Alpha))
	}
	return s.logGamma
}

// Observe adds one value. Values ≤ 0 land in the zero bucket.
func (s *Quantile) Observe(x float64) {
	if s.Total == 0 || x < s.Lo {
		s.Lo = x
	}
	if s.Total == 0 || x > s.Hi {
		s.Hi = x
	}
	s.Total++
	if x <= 0 {
		s.Zeros++
		return
	}
	s.Buckets[int(math.Ceil(math.Log(x)/s.gammaLog()))]++
}

// Count returns the number of observations.
func (s *Quantile) Count() int64 { return s.Total }

// Quantile returns an estimate of the q-quantile (q in [0,1]) with
// relative error ≤ Alpha, or NaN when the sketch is empty.
func (s *Quantile) Quantile(q float64) float64 {
	if s.Total == 0 {
		return math.NaN()
	}
	rank := int64(math.Ceil(q * float64(s.Total)))
	if rank < 1 {
		rank = 1
	}
	if rank >= s.Total {
		return s.Hi
	}
	if rank <= s.Zeros {
		return 0
	}
	if rank == 1 {
		return s.Lo
	}
	keys := make([]int, 0, len(s.Buckets))
	for k := range s.Buckets {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	cum := s.Zeros
	gamma := (1 + s.Alpha) / (1 - s.Alpha)
	for _, k := range keys {
		cum += s.Buckets[k]
		if cum >= rank {
			// Bucket k covers (γ^(k−1), γ^k]; the midpoint estimate
			// 2γ^k/(γ+1) has relative error ≤ α anywhere in the bucket.
			v := 2 * math.Pow(gamma, float64(k)) / (gamma + 1)
			return math.Min(math.Max(v, s.Lo), s.Hi)
		}
	}
	return s.Hi
}

// Merge folds o into s. Sketches must share Alpha. Merging is exact:
// the result is identical to one sketch having observed both streams.
func (s *Quantile) Merge(o *Quantile) error {
	if o == nil || o.Total == 0 {
		return nil
	}
	if s.Alpha != o.Alpha {
		return fmt.Errorf("stats: merging quantile sketches with alpha %v and %v", s.Alpha, o.Alpha)
	}
	if s.Total == 0 || o.Lo < s.Lo {
		s.Lo = o.Lo
	}
	if s.Total == 0 || o.Hi > s.Hi {
		s.Hi = o.Hi
	}
	if s.Buckets == nil {
		s.Buckets = map[int]int64{}
	}
	for k, c := range o.Buckets {
		s.Buckets[k] += c
	}
	s.Zeros += o.Zeros
	s.Total += o.Total
	return nil
}

// Summary is the compact quantile digest reports embed: plain numeric
// fields, so the campaign engine's generic flattener reduces each to a
// mean ± CI metric across seeds.
type Summary struct {
	N                  int64
	Min                float64
	P25, P50, P75, P90 float64
	Max                float64
}

// Summarize digests the sketch. Empty sketches summarize to zeros.
func (s *Quantile) Summarize() Summary {
	if s.Total == 0 {
		return Summary{}
	}
	return Summary{
		N:   s.Total,
		Min: s.Lo,
		P25: s.Quantile(0.25),
		P50: s.Quantile(0.50),
		P75: s.Quantile(0.75),
		P90: s.Quantile(0.90),
		Max: s.Hi,
	}
}

// TimeSeries is a mergeable series of event counts in fixed-width
// buckets of virtual time, offset from the simulation epoch. Merging
// sums element-wise, so it is associative and commutative.
type TimeSeries struct {
	// Bucket is the bucket width.
	Bucket time.Duration
	// Counts holds one count per bucket, from offset zero.
	Counts []int64
}

// NewTimeSeries returns a series with the given bucket width;
// bucket <= 0 selects one minute.
func NewTimeSeries(bucket time.Duration) *TimeSeries {
	if bucket <= 0 {
		bucket = time.Minute
	}
	return &TimeSeries{Bucket: bucket}
}

// Add counts n events at virtual-time offset at (negative offsets
// land in bucket 0), extending the series as needed.
func (t *TimeSeries) Add(at time.Duration, n int64) {
	i := 0
	if at > 0 {
		i = int(at / t.Bucket)
	}
	for len(t.Counts) <= i {
		t.Counts = append(t.Counts, 0)
	}
	t.Counts[i] += n
}

// Sum returns the total event count.
func (t *TimeSeries) Sum() int64 {
	var s int64
	for _, c := range t.Counts {
		s += c
	}
	return s
}

// Ints converts the counts for rendering (see Sparkline).
func (t *TimeSeries) Ints() []int {
	out := make([]int, len(t.Counts))
	for i, c := range t.Counts {
		out[i] = int(c)
	}
	return out
}

// Merge folds o into t. Series must share the bucket width; the longer
// tail is kept.
func (t *TimeSeries) Merge(o *TimeSeries) error {
	if o == nil || len(o.Counts) == 0 {
		return nil
	}
	if t.Bucket != o.Bucket {
		return fmt.Errorf("stats: merging time series with buckets %v and %v", t.Bucket, o.Bucket)
	}
	for len(t.Counts) < len(o.Counts) {
		t.Counts = append(t.Counts, 0)
	}
	for i, c := range o.Counts {
		t.Counts[i] += c
	}
	return nil
}
