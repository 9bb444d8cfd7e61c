// Package seedfork derives independent child seeds from a parent seed
// and a label path. Every stochastic component in the simulator is
// seeded from one campaign seed; before this package existed, child
// seeds were derived with ad-hoc arithmetic (cfg.Seed+7, +int64(i)*77,
// seedOff+23, …), which collides as soon as two call sites pick
// overlapping offsets — a sweep over a seed list and a parameter grid
// makes such collisions inevitable. Fork instead mixes the parent seed,
// a call-site label and optional indices through a SplitMix64-style
// finalizer, so distinct label paths yield statistically independent
// streams and identical inputs always yield the same child seed.
//
// Source, math/rand's generator seeded lazily and with a serializable
// position, is the stream of every snapshotted or per-link component.
package seedfork

import "hash/fnv"

// mix64 is the SplitMix64 output finalizer (Steele, Lea & Flood 2014):
// an invertible avalanche function whose outputs pass BigCrush when fed
// a counter. Inverting bias in the low bits of small inputs is exactly
// what the ad-hoc additive offsets lacked.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15 // golden-ratio increment decorrelates z and z+1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Fork returns the child seed for (parent, label, idx...). The label
// names the consumer ("trafficgen", "gfw", …); indices distinguish
// instances of the same consumer (pair number, grid cell, shard).
// Fork(s, l, i...) is pure: equal inputs give equal outputs, and any
// change to parent, label or an index changes the result.
func Fork(parent int64, label string, idx ...int64) int64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	z := mix64(uint64(parent) ^ h.Sum64())
	for _, i := range idx {
		z = mix64(z ^ mix64(uint64(i)))
	}
	return int64(z)
}
