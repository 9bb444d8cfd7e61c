// Fixtures for the seedfork analyzer: arithmetic on seed-named values
// and arithmetic-seeded PRNG construction are violations; seeds derived
// through Fork (or used untouched) are clean.
package fixtures

import "math/rand"

// Fork stands in for sslab/internal/seedfork.Fork — the analyzer
// recognizes the laundering point by name, so fixtures stay
// self-contained.
func Fork(parent int64, label string, idx ...int64) int64 { return parent }

// Source and NewSource stand in for sslab/internal/seedfork's: the
// analyzer recognizes any function named NewSource as a PRNG
// constructor.
type Source struct{ seed int64 }

func NewSource(seed int64) Source { return Source{seed} }

type config struct {
	Seed int64
}

func offsetChild(cfg config) *rand.Rand {
	return rand.New(rand.NewSource(cfg.Seed + 1)) // want `arithmetic on seed "Seed"`
}

func offsetLocal(seed int64, i int) int64 {
	return seed + int64(i)*77 // want `arithmetic on seed "seed"`
}

func xorChild(baseSeed int64) int64 {
	return baseSeed ^ 0x9e37 // want `arithmetic on seed "baseSeed"`
}

func arithmeticallySeeded(i int) *rand.Rand {
	return rand.New(rand.NewSource(int64(i) * 77)) // want `PRNG seeded from an arithmetic expression`
}

func arithmeticallySeededSource(i int) Source {
	return NewSource(int64(i) * 77) // want `PRNG seeded from an arithmetic expression`
}

func allowedSourceOffset(i int) Source {
	//sslab:allow-seedfork historical stream pinned by goldens; do not re-derive
	return NewSource(int64(i) + 1)
}

func forked(cfg config, i int) *rand.Rand {
	return rand.New(rand.NewSource(Fork(cfg.Seed, "fixture.component", int64(i)))) // ok: flows from Fork
}

func directSeed(cfg config) *rand.Rand {
	return rand.New(rand.NewSource(cfg.Seed)) // ok: the root seed, untouched
}

func comparison(seed int64) bool {
	return seed < 500 // ok: comparing, not deriving
}

func loopOverSeeds(run func(int64)) {
	for seed := int64(0); seed < 8; seed++ { // ok: iteration, not derivation
		run(seed)
	}
}

func nonIntegerName(seedCorpus []string) string {
	return seedCorpus[0] + "x" // ok: not an integer seed
}

func allowedOffset(seed int64) int64 {
	//sslab:allow-seedfork historical stream pinned by goldens; do not re-derive
	return seed + 9
}
