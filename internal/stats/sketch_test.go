package stats

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// sketchJSON is the canonical comparison form for merge property tests:
// byte-identical JSON means identical bucket counts, totals and
// extremes (and exercises the encoding the campaign engine reduces).
func sketchJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}

// TestQuantileMergeOrderIndependent mirrors the Histogram merge suite:
// folding a set of sketches in any permutation yields an identical
// sketch, the property the campaign engine's shard reduction relies on.
func TestQuantileMergeOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var parts []*Quantile
	for p := 0; p < 12; p++ {
		s := NewQuantile(0.01)
		for i := 0; i < 50+rng.Intn(200); i++ {
			s.Observe(rng.ExpFloat64() * 100)
		}
		parts = append(parts, s)
	}

	fold := func(order []int) string {
		total := NewQuantile(0.01)
		for _, i := range order {
			if err := total.Merge(parts[i]); err != nil {
				t.Fatalf("merge: %v", err)
			}
		}
		return sketchJSON(t, total)
	}

	base := make([]int, len(parts))
	for i := range base {
		base[i] = i
	}
	want := fold(base)
	for trial := 0; trial < 20; trial++ {
		order := rng.Perm(len(parts))
		if got := fold(order); got != want {
			t.Fatalf("merge order %v changed the sketch:\n got %s\nwant %s", order, got, want)
		}
	}
}

// TestQuantileMergeAssociative checks grouped folding: merging halves
// that were themselves merged equals a flat left fold.
func TestQuantileMergeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var parts []*Quantile
	for p := 0; p < 8; p++ {
		s := NewQuantile(0.02)
		for i := 0; i < 120; i++ {
			s.Observe(rng.NormFloat64()*10 + 50)
		}
		parts = append(parts, s)
	}

	flat := NewQuantile(0.02)
	for _, p := range parts {
		if err := flat.Merge(p); err != nil {
			t.Fatalf("merge: %v", err)
		}
	}

	left, right := NewQuantile(0.02), NewQuantile(0.02)
	for _, p := range parts[:4] {
		left.Merge(p)
	}
	for _, p := range parts[4:] {
		right.Merge(p)
	}
	grouped := NewQuantile(0.02)
	grouped.Merge(left)
	grouped.Merge(right)

	if got, want := sketchJSON(t, grouped), sketchJSON(t, flat); got != want {
		t.Fatalf("grouped merge diverged:\n got %s\nwant %s", got, want)
	}
}

// TestQuantileMergeEqualsBulk: merging per-part sketches is exactly the
// sketch that observed the concatenated stream (merge is lossless).
func TestQuantileMergeEqualsBulk(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	bulk := NewQuantile(0.01)
	merged := NewQuantile(0.01)
	for p := 0; p < 6; p++ {
		part := NewQuantile(0.01)
		for i := 0; i < 300; i++ {
			x := rng.Float64() * 1000
			bulk.Observe(x)
			part.Observe(x)
		}
		if err := merged.Merge(part); err != nil {
			t.Fatalf("merge: %v", err)
		}
	}
	if got, want := sketchJSON(t, merged), sketchJSON(t, bulk); got != want {
		t.Fatalf("merged != bulk:\n got %s\nwant %s", got, want)
	}
}

// TestQuantileMergeAlphaMismatch: sketches with different accuracy
// targets must refuse to merge (their buckets are incompatible).
func TestQuantileMergeAlphaMismatch(t *testing.T) {
	a, b := NewQuantile(0.01), NewQuantile(0.02)
	b.Observe(1)
	if err := a.Merge(b); err == nil {
		t.Fatal("merging sketches with different alphas succeeded")
	}
}

// exactQuantile is the reference the sketch is checked against.
func exactQuantile(sorted []float64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// TestQuantileAccuracy checks the sketch's relative-error guarantee on
// known distributions: every reported quantile must be within ~α
// (doubled for rounding slack at bucket boundaries) of the exact
// sample quantile.
func TestQuantileAccuracy(t *testing.T) {
	const n, alpha = 20000, 0.01
	distributions := map[string]func(*rand.Rand) float64{
		"uniform":     func(r *rand.Rand) float64 { return r.Float64() * 100 },
		"exponential": func(r *rand.Rand) float64 { return r.ExpFloat64() * 10 },
		"lognormal":   func(r *rand.Rand) float64 { return math.Exp(r.NormFloat64()) },
	}
	for name, draw := range distributions {
		rng := rand.New(rand.NewSource(23))
		s := NewQuantile(alpha)
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = draw(rng)
			s.Observe(samples[i])
		}
		sort.Float64s(samples)
		for _, q := range []float64{0.05, 0.25, 0.5, 0.75, 0.9, 0.99} {
			exact := exactQuantile(samples, q)
			got := s.Quantile(q)
			relErr := math.Abs(got-exact) / exact
			if relErr > 2*alpha {
				t.Errorf("%s p%v: sketch %.4f vs exact %.4f (rel err %.4f > %v)",
					name, q, got, exact, relErr, 2*alpha)
			}
		}
		if got, want := s.Quantile(0), samples[0]; got != want {
			t.Errorf("%s p0: got %v, want exact min %v", name, got, want)
		}
		if got, want := s.Quantile(1), samples[n-1]; got != want {
			t.Errorf("%s p1: got %v, want exact max %v", name, got, want)
		}
	}
}

// TestQuantileZerosAndEmpty covers the zero bucket and the empty sketch.
func TestQuantileZerosAndEmpty(t *testing.T) {
	s := NewQuantile(0.01)
	if !math.IsNaN(s.Quantile(0.5)) {
		t.Error("empty sketch should report NaN")
	}
	for i := 0; i < 10; i++ {
		s.Observe(0)
	}
	s.Observe(5)
	if got := s.Quantile(0.5); got != 0 {
		t.Errorf("median of mostly-zeros = %v, want 0", got)
	}
	if got := s.Quantile(1); got != 5 {
		t.Errorf("max = %v, want 5", got)
	}
	if s.Count() != 11 {
		t.Errorf("count = %d, want 11", s.Count())
	}
}

// TestTimeSeriesMergeOrderIndependent mirrors the Histogram suite for
// the mergeable counter series.
func TestTimeSeriesMergeOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var parts []*TimeSeries
	for p := 0; p < 12; p++ {
		ts := NewTimeSeries(15 * time.Minute)
		for i := 0; i < 100+rng.Intn(100); i++ {
			ts.Add(time.Duration(rng.Int63n(int64(24*time.Hour))), 1+rng.Int63n(3))
		}
		parts = append(parts, ts)
	}

	fold := func(order []int) string {
		total := NewTimeSeries(15 * time.Minute)
		for _, i := range order {
			if err := total.Merge(parts[i]); err != nil {
				t.Fatalf("merge: %v", err)
			}
		}
		return sketchJSON(t, total)
	}

	base := make([]int, len(parts))
	for i := range base {
		base[i] = i
	}
	want := fold(base)
	for trial := 0; trial < 20; trial++ {
		order := rng.Perm(len(parts))
		if got := fold(order); got != want {
			t.Fatalf("merge order %v changed the series:\n got %s\nwant %s", order, got, want)
		}
	}
}

// TestTimeSeriesAddAndMerge covers bucketing, extension, totals and the
// width-mismatch guard.
func TestTimeSeriesAddAndMerge(t *testing.T) {
	ts := NewTimeSeries(time.Hour)
	ts.Add(30*time.Minute, 2)
	ts.Add(90*time.Minute, 1)
	ts.Add(-5*time.Minute, 1) // clamps into bucket 0
	if want := []int64{3, 1}; len(ts.Counts) != 2 || ts.Counts[0] != want[0] || ts.Counts[1] != want[1] {
		t.Fatalf("counts = %v, want %v", ts.Counts, want)
	}
	if ts.Sum() != 4 {
		t.Fatalf("sum = %d, want 4", ts.Sum())
	}

	longer := NewTimeSeries(time.Hour)
	longer.Add(5*time.Hour, 7)
	if err := ts.Merge(longer); err != nil {
		t.Fatalf("merge: %v", err)
	}
	if len(ts.Counts) != 6 || ts.Counts[5] != 7 {
		t.Fatalf("merge did not extend: %v", ts.Counts)
	}

	other := NewTimeSeries(time.Minute)
	other.Add(0, 1)
	if err := ts.Merge(other); err == nil {
		t.Fatal("merging different bucket widths succeeded")
	}
	if got := ts.Ints(); len(got) != 6 || got[0] != 3 {
		t.Fatalf("Ints() = %v", got)
	}
}
