// Package probe defines the GFW's active-probe taxonomy from §3.2 of the
// paper — five replay-based types and two random types — plus the
// additional types first observed in the random-data experiments of §4.2,
// and the classifier that maps an observed probe payload back to its type
// (the analysis the authors performed on their packet captures).
package probe

import "bytes"

// RNG is the randomness Build consumes: integer draws for mutation
// deltas and length picks, byte fills for random payloads. *rand.Rand
// satisfies it; callers that must serialize their stream position pass
// an adapter whose Read routes through explicit reader state instead
// of rand.Rand's unexported read buffer.
type RNG interface {
	Intn(n int) int
	Read(p []byte) (int, error)
}

// Type identifies one kind of active probe.
type Type int

const (
	// Unknown is a payload that matches no documented probe type.
	Unknown Type = iota
	// R1 is an identical replay of a recorded legitimate first packet.
	R1
	// R2 is a replay with byte 0 changed.
	R2
	// R3 is a replay with bytes 0–7 and 62–63 changed.
	R3
	// R4 is a replay with byte 16 changed.
	R4
	// R5 is a replay with bytes 6 and 16 changed.
	R5
	// R6 is a replay with bytes 16–32 changed — the new replay type first
	// seen in Exp 1.b (§4.2, "New probe types observed").
	R6
	// NR1 is a random probe whose length falls in the trios centered on
	// 8, 12, 16, 22, 33, 41, 49 — each trio straddling a reaction
	// threshold of some stream-cipher IV length (§5.2.2).
	NR1
	// NR2 is a random probe of exactly 221 bytes, roughly three times as
	// common as all NR1 probes together (Figure 2).
	NR2
	// NR3 covers the sporadic random probes of 53, 56, 169, 180, and 402
	// bytes observed in the random-data experiments.
	NR3
)

var typeNames = map[Type]string{
	Unknown: "unknown", R1: "R1", R2: "R2", R3: "R3", R4: "R4",
	R5: "R5", R6: "R6", NR1: "NR1", NR2: "NR2", NR3: "NR3",
}

func (t Type) String() string { return typeNames[t] }

// Replay reports whether t is derived from a recorded legitimate payload.
func (t Type) Replay() bool { return t >= R1 && t <= R6 }

// NR2Length is the fixed length of type NR2 probes.
const NR2Length = 221

// nr1Centers are the trio centers; each trio is {c-1, c, c+1}.
var nr1Centers = []int{8, 12, 16, 22, 33, 41, 49}

// NR1Lengths returns all 21 lengths type NR1 probes use, ascending.
func NR1Lengths() []int {
	out := make([]int, 0, 3*len(nr1Centers))
	for _, c := range nr1Centers {
		out = append(out, c-1, c, c+1)
	}
	return out
}

// NR3Lengths returns the sporadic random-probe lengths from §4.2.
func NR3Lengths() []int { return []int{53, 56, 169, 180, 402} }

// mutated returns the offsets (relative to the recorded payload) each
// replay type changes (empty for R1 and non-replay types). §5.3's key
// observation is that R2, R3 and R5 all touch the IV/salt region, while
// R4 targets byte 16 — past an 8- or 12-byte IV but inside a 16-byte one.
func mutated(t Type) []int {
	switch t {
	case R2:
		return []int{0}
	case R3:
		return []int{0, 1, 2, 3, 4, 5, 6, 7, 62, 63}
	case R4:
		return []int{16}
	case R5:
		return []int{6, 16}
	case R6:
		offs := make([]int, 0, 17)
		for i := 16; i <= 32; i++ {
			offs = append(offs, i)
		}
		return offs
	default:
		return nil
	}
}

// Build constructs a probe payload of the given type. recorded is the
// legitimate first packet being replayed (required for R1–R6, ignored for
// NR types); rng drives mutations and random contents.
func Build(t Type, recorded []byte, rng RNG) []byte {
	switch t {
	case R1, R2, R3, R4, R5, R6:
		p := append([]byte(nil), recorded...)
		for _, off := range mutated(t) {
			if off >= len(p) {
				continue
			}
			// Change to a strictly different value, as the GFW does.
			delta := byte(1 + rng.Intn(255))
			p[off] += delta
		}
		return p
	case NR1:
		lens := NR1Lengths()
		n := lens[rng.Intn(len(lens))]
		return randBytes(rng, n)
	case NR2:
		return randBytes(rng, NR2Length)
	case NR3:
		lens := NR3Lengths()
		return randBytes(rng, lens[rng.Intn(len(lens))])
	default:
		return randBytes(rng, 1+rng.Intn(99))
	}
}

func randBytes(rng RNG, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// Classify determines the probe type of payload given the recorded
// legitimate first packets of past connections to the same server — the
// same matching the paper's analysis pipeline performs. A payload is a
// replay variant if it has the same length as some recorded payload and
// differs from it exactly at one documented offset set.
func Classify(payload []byte, recorded [][]byte) Type {
	for _, rec := range recorded {
		if len(rec) != len(payload) {
			continue
		}
		if bytes.Equal(rec, payload) {
			return R1
		}
		diffs := diffOffsets(rec, payload)
		for _, t := range []Type{R2, R3, R4, R5, R6} {
			if sameOffsets(diffs, mutated(t), len(payload)) {
				return t
			}
		}
	}
	switch n := len(payload); {
	case n == NR2Length:
		return NR2
	case isNR1Length(n):
		return NR1
	case isNR3Length(n):
		return NR3
	default:
		return Unknown
	}
}

func isNR1Length(n int) bool {
	for _, l := range NR1Lengths() {
		if n == l {
			return true
		}
	}
	return false
}

func isNR3Length(n int) bool {
	for _, l := range NR3Lengths() {
		if n == l {
			return true
		}
	}
	return false
}

func diffOffsets(a, b []byte) []int {
	var out []int
	for i := range a {
		if a[i] != b[i] {
			out = append(out, i)
		}
	}
	return out
}

// sameOffsets reports whether observed diffs match the documented offsets
// clipped to the payload length. Mutation "to a different value" is
// guaranteed by Build, so every in-range offset must appear.
func sameOffsets(diffs, want []int, n int) bool {
	expect := want[:0:0]
	for _, o := range want {
		if o < n {
			expect = append(expect, o)
		}
	}
	if len(diffs) != len(expect) {
		return false
	}
	for i := range diffs {
		if diffs[i] != expect[i] {
			return false
		}
	}
	return len(expect) > 0
}

// FromName maps a type name back to its Type (inverse of String); unknown
// names map to Unknown.
func FromName(name string) Type {
	for t, n := range typeNames {
		if n == name {
			return t
		}
	}
	return Unknown
}
