// Package stats provides the statistical tools the paper's analysis
// pipeline needs: empirical CDFs, histograms, linear fits (for TCP
// timestamp clock-rate estimation), and the sequence clustering used in
// §3.4 to show that probes from thousands of IP addresses share a handful
// of TCP timestamp processes.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// CDF is an empirical cumulative distribution over float64 samples.
type CDF struct {
	sorted []float64
}

// NewCDF builds a CDF from samples (copied and sorted).
func NewCDF(samples []float64) *CDF {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// Len returns the sample count.
func (c *CDF) Len() int { return len(c.sorted) }

// P returns the empirical fraction of samples <= x.
func (c *CDF) P(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the q-th quantile (0 <= q <= 1).
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	i := int(q * float64(len(c.sorted)))
	if i >= len(c.sorted) {
		i = len(c.sorted) - 1
	}
	return c.sorted[i]
}

// Min and Max return the extremes.
func (c *CDF) Min() float64 { return c.Quantile(0) }

// Max returns the largest sample.
func (c *CDF) Max() float64 { return c.Quantile(1) }

// Histogram counts integer-valued observations.
type Histogram struct {
	Counts map[int]int
	Total  int
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{Counts: map[int]int{}} }

// Add increments the bin for v.
func (h *Histogram) Add(v int) {
	h.Counts[v]++
	h.Total++
}

// Count returns the count in bin v.
func (h *Histogram) Count(v int) int { return h.Counts[v] }

// Fraction returns the share of observations in bin v.
func (h *Histogram) Fraction(v int) float64 {
	if h.Total == 0 {
		return 0
	}
	return float64(h.Counts[v]) / float64(h.Total)
}

// Keys returns the occupied bins, ascending.
func (h *Histogram) Keys() []int {
	out := make([]int, 0, len(h.Counts))
	for k := range h.Counts {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// TopK returns the k most frequent bins, by descending count (ties by
// ascending bin).
func (h *Histogram) TopK(k int) []struct{ Value, Count int } {
	type vc struct{ Value, Count int }
	all := make([]vc, 0, len(h.Counts))
	for v, c := range h.Counts {
		all = append(all, vc{v, c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return all[i].Value < all[j].Value
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]struct{ Value, Count int }, k)
	for i := 0; i < k; i++ {
		out[i] = struct{ Value, Count int }{all[i].Value, all[i].Count}
	}
	return out
}

// LinearFit returns the least-squares slope and intercept of y against x.
func LinearFit(x, y []float64) (slope, intercept float64, err error) {
	if len(x) != len(y) || len(x) < 2 {
		return 0, 0, fmt.Errorf("stats: need >= 2 paired samples, got %d/%d", len(x), len(y))
	}
	n := float64(len(x))
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, 0, fmt.Errorf("stats: degenerate x values")
	}
	slope = (n*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / n
	return slope, intercept, nil
}

// TSPoint is one (time, TCP timestamp) observation.
type TSPoint struct {
	T     float64 // seconds since the experiment start
	TSval uint32
}

// TSCluster is a group of TSPoints consistent with one timestamp process:
// a shared counter increasing at Rate Hz from a common origin.
type TSCluster struct {
	Rate   float64 // ticks per second (250 or 1000 in the paper's data)
	Offset float64 // TSval at T=0, unwrapped
	Points []TSPoint
}

// ClusterTSvals groups observations into timestamp processes. For each
// candidate clock rate it computes the wrap-adjusted origin offset
// (TSval - rate*T mod 2^32) of every point and clusters offsets within
// tol ticks. Points are assigned to the first candidate rate that admits
// them; remaining points form their own clusters. This mirrors the
// paper's Figure 6 analysis, which identified at least seven 250 Hz
// sequences plus one small 1000 Hz cluster.
func ClusterTSvals(points []TSPoint, rates []float64, tol float64) []TSCluster {
	const wrap = float64(1 << 32)
	remaining := append([]TSPoint(nil), points...)
	var clusters []TSCluster

	for _, rate := range rates {
		// Offset for each remaining point at this rate.
		type po struct {
			p   TSPoint
			off float64
		}
		var pos []po
		for _, p := range remaining {
			off := math.Mod(float64(p.TSval)-rate*p.T, wrap)
			if off < 0 {
				off += wrap
			}
			pos = append(pos, po{p, off})
		}
		sort.Slice(pos, func(i, j int) bool { return pos[i].off < pos[j].off })

		used := make([]bool, len(pos))
		for i := 0; i < len(pos); i++ {
			if used[i] {
				continue
			}
			// Grow a cluster of nearby offsets.
			members := []int{i}
			for j := i + 1; j < len(pos) && pos[j].off-pos[members[len(members)-1]].off <= tol; j++ {
				if !used[j] {
					members = append(members, j)
				}
			}
			// A real process produces repeated observations; singletons at
			// this rate get a chance at other rates or become leftovers.
			if len(members) < 2 {
				continue
			}
			c := TSCluster{Rate: rate, Offset: pos[members[0]].off}
			for _, m := range members {
				used[m] = true
				c.Points = append(c.Points, pos[m].p)
			}
			clusters = append(clusters, c)
		}
		// Keep only unassigned points for the next rate.
		var next []TSPoint
		for k, p := range pos {
			if !used[k] {
				next = append(next, p.p)
			}
		}
		remaining = next
	}
	for _, p := range remaining {
		clusters = append(clusters, TSCluster{Rate: 0, Offset: float64(p.TSval), Points: []TSPoint{p}})
	}
	sort.Slice(clusters, func(i, j int) bool { return len(clusters[i].Points) > len(clusters[j].Points) })
	return clusters
}

// MeasuredRate fits the cluster's own points to estimate its actual clock
// rate — the paper measured "almost exactly 250 Hz" this way.
func (c *TSCluster) MeasuredRate() (float64, error) {
	if len(c.Points) < 2 {
		return 0, fmt.Errorf("stats: cluster too small to fit")
	}
	// Unwrap TSvals relative to the first point, in time order.
	sort.Slice(c.Points, func(i, j int) bool { return c.Points[i].T < c.Points[j].T })
	const wrap = float64(1 << 32)
	x := make([]float64, len(c.Points))
	y := make([]float64, len(c.Points))
	base := float64(c.Points[0].TSval)
	prev := base
	unwrapped := base
	for i, p := range c.Points {
		v := float64(p.TSval)
		d := v - prev
		if d < -wrap/2 {
			d += wrap
		}
		unwrapped += d
		prev = v
		x[i] = p.T
		y[i] = unwrapped
	}
	slope, _, err := LinearFit(x, y)
	return slope, err
}

// Sparkline renders values as a one-line ASCII intensity plot, for
// terminal figure rendering. Each glyph covers `bucket` consecutive
// values (summed).
func Sparkline(values []int, bucket int) string {
	if bucket < 1 {
		bucket = 1
	}
	glyphs := []rune(" .:-=+*#%@")
	var sums []int
	maxSum := 1
	for i := 0; i < len(values); i += bucket {
		s := 0
		for j := i; j < i+bucket && j < len(values); j++ {
			s += values[j]
		}
		sums = append(sums, s)
		if s > maxSum {
			maxSum = s
		}
	}
	out := make([]rune, len(sums))
	for i, s := range sums {
		idx := s * (len(glyphs) - 1) / maxSum
		out[i] = glyphs[idx]
	}
	return string(out)
}

// FormatSeconds renders a duration given in seconds compactly for
// report tables: "-" for none, then whole seconds, minutes or hours.
func FormatSeconds(sec float64) string {
	switch {
	case sec <= 0:
		return "-"
	case sec < 90:
		return fmt.Sprintf("%.0fs", sec)
	case sec < 2*3600:
		return fmt.Sprintf("%.1fm", sec/60)
	default:
		return fmt.Sprintf("%.1fh", sec/3600)
	}
}

// SPRT is Wald's sequential probability ratio test over categorical
// observations: after each observation the accumulated log-likelihood
// ratio is compared against thresholds derived from the desired error
// rates. The paper's observation that the GFW needs one probe to confirm
// Tor but a set of several for Shadowsocks (§5.2.2) is exactly the
// behaviour of such a test: expected sample size scales inversely with
// the per-observation KL divergence between the hypotheses.
type SPRT struct {
	// H1 and H0 give each outcome's probability under "target protocol"
	// and "innocuous server" respectively. Outcomes missing from a map
	// get a small floor probability.
	H1, H0 map[string]float64
	// Alpha is the false-positive and Beta the false-negative bound
	// (defaults 0.01).
	Alpha, Beta float64

	llr float64
	n   int
}

// sprtFloor avoids infinite ratios for outcomes a hypothesis deems
// impossible; real test designers smooth the same way.
const sprtFloor = 1e-4

// Verdict is the test's state.
type Verdict int

const (
	// Undecided: keep probing.
	Undecided Verdict = iota
	// AcceptH1: the server matches the target protocol.
	AcceptH1
	// AcceptH0: the server is innocuous.
	AcceptH0
)

func (s *SPRT) prob(m map[string]float64, outcome string) float64 {
	if p, ok := m[outcome]; ok && p > 0 {
		return p
	}
	return sprtFloor
}

// Observe folds in one outcome and returns the current verdict.
func (s *SPRT) Observe(outcome string) Verdict {
	alpha, beta := s.Alpha, s.Beta
	if alpha <= 0 {
		alpha = 0.01
	}
	if beta <= 0 {
		beta = 0.01
	}
	s.n++
	s.llr += math.Log(s.prob(s.H1, outcome) / s.prob(s.H0, outcome))
	upper := math.Log((1 - beta) / alpha)
	lower := math.Log(beta / (1 - alpha))
	switch {
	case s.llr >= upper:
		return AcceptH1
	case s.llr <= lower:
		return AcceptH0
	default:
		return Undecided
	}
}

// N returns the number of observations consumed.
func (s *SPRT) N() int { return s.n }
