package gfw

import (
	"math"
	"time"

	"sslab/internal/seedfork"
)

// Replay-delay model calibrated to Figure 7: more than 20% of first
// replays arrive within one second, more than 50% within one minute, more
// than 75% within fifteen minutes; the minimum observed delay was 0.28 s
// and the maximum 569.55 hours.
var delayBands = []struct {
	p      float64 // cumulative probability at the band's upper edge
	lo, hi float64 // seconds, log-uniform within the band
}{
	{0.22, 0.28, 1},
	{0.52, 1, 60},
	{0.78, 60, 900},
	{0.93, 900, 36000},
	{1.00, 36000, 569.55 * 3600},
}

// sampleDelay draws one replay delay.
func sampleDelay(rng *seedfork.Source) time.Duration {
	u := rng.Float64()
	for _, b := range delayBands {
		if u < b.p || b.p == 1 {
			// Log-uniform within [lo, hi).
			v := rng.Float64()
			sec := math.Exp(math.Log(b.lo) + v*(math.Log(b.hi)-math.Log(b.lo)))
			return time.Duration(sec * float64(time.Second))
		}
	}
	return time.Second
}

// sampleRepeatCount draws how many times one recorded payload is replayed
// in total. Figure 7's two curves imply a mean of ≈3.4 replays per
// distinct payload, with an observed maximum of 47; a geometric tail
// reproduces both.
func sampleRepeatCount(rng *seedfork.Source) int {
	const meanExtra = 2.4
	p := 1 / (1 + meanExtra)
	n := 1
	for n < 47 && rng.Float64() > p {
		n++
	}
	return n
}
