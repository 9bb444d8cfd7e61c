// Fixtures for the detrand analyzer: global math/rand state and
// wall-clock seeds are violations; injected seeded PRNGs are clean.
package fixtures

import (
	"math/rand"
	"time"
)

func globalState() int {
	return rand.Intn(6) // want `global math/rand\.Intn .* injected, seeded \*rand\.Rand`
}

func globalFloat() float64 {
	rand.Shuffle(3, func(i, j int) {}) // want `global math/rand\.Shuffle`
	return rand.Float64()              // want `global math/rand\.Float64`
}

func wallClockSeed() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano())) // want `seeded from the wall clock`
}

func seeded(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed)) // ok: explicit seed
}

// source and NewSource stand in for sslab/internal/seedfork's: the
// analyzer recognizes any function named NewSource as a PRNG
// constructor.
type source struct{ seed int64 }

func NewSource(seed int64) source { return source{seed} }

func wallClockSource() source {
	return NewSource(time.Now().UnixNano()) // want `seeded from the wall clock`
}

func allowedWallClockSource() source {
	//sslab:allow-detrand throwaway debug stream outside any replayed experiment path
	return NewSource(time.Now().UnixNano())
}

func injected(rng *rand.Rand) int {
	return rng.Intn(6) // ok: method on an injected *rand.Rand
}

func allowedJitter() float64 {
	//sslab:allow-detrand startup jitter outside any replayed experiment path
	return rand.Float64()
}

func allowedInline() int {
	return rand.Intn(2) //sslab:allow-detrand coin flip in throwaway debug helper
}
