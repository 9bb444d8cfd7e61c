package detector

import (
	"sslab/internal/netsim"
)

// The Shadowsocks stage is the paper's passive detector: §4.2
// establishes that the GFW identifies probable Shadowsocks connections
// from the length and entropy of the first data packet alone. The
// weights below are calibrated so the downstream statistics the paper
// measures emerge:
//
//   - Replays are essentially confined to trigger lengths 160–999 bytes
//     (Figure 8's support: min 161, max 999).
//   - Within 168–263 bytes, 72% of replayed lengths have remainder 9
//     mod 16; within 384–687, 96% have remainder 2; 264–383 mixes both
//     (Figure 8's stair-steps).
//   - A payload of entropy 7.2 is ≈4× as likely to be replayed as one of
//     entropy 3.0 (Figure 9).
//
// Remainders 9 and 2 mod 16 are exactly where common Shadowsocks first
// packets land: a stream-cipher IPv4 flight is IV+7 bytes and an AEAD
// flight is salt+2+16+16+payload, so the detector privileging those
// remainders is consistent with it having been trained on real traffic.

// StageShadowsocks names the length+entropy Shadowsocks stage.
const StageShadowsocks = "shadowsocks"

// lengthWeight returns the relative probability that a first packet of
// length n is selected for recording/replay, before the entropy factor.
func lengthWeight(n int) float64 {
	if n < 160 || n > 999 {
		return 0
	}
	r := n % 16
	switch {
	case n < 264: // 160–263: remainder 9 dominates (72%)
		if r == 9 {
			return 1.0
		}
		return 0.026
	case n < 384: // 264–383: mix of remainder 9 (37%) and 2 (32%)
		switch r {
		case 9:
			return 1.0
		case 2:
			return 0.86
		default:
			return 0.06
		}
	default: // 384–999: remainder 2 dominates (96%)
		if r == 2 {
			return 1.0
		}
		return 0.0028
	}
}

// entropyWeight scales the replay probability with the payload's per-byte
// Shannon entropy (Figure 9: roughly linear, ≈4× from H=3.0 to H=7.2).
func entropyWeight(h float64) float64 {
	const (
		low   = 0.25 // weight at H <= 3.0
		high  = 1.0  // weight at H >= 7.2
		hLow  = 3.0
		hHigh = 7.2
	)
	switch {
	case h <= hLow:
		// Below 3 bits/byte the rate flattens but stays nonzero —
		// Figure 9 shows replays at all entropies.
		return low * (0.5 + 0.5*h/hLow)
	case h >= hHigh:
		return high
	default:
		return low + (high-low)*(h-hLow)/(hHigh-hLow)
	}
}

// ssStage evaluates first payloads with the length and entropy features.
type ssStage struct {
	base          float64 // overall recording rate scale
	ignoreLength  bool    // ablation: drop the length feature
	ignoreEntropy bool    // ablation: drop the entropy feature
}

// Observe returns Suspect with the recording probability (in a bound
// pass, its upper bound base × length weight) as confidence.
//
//sslab:hotpath
func (s *ssStage) Observe(f *netsim.Flow, sc *Scratch) Result {
	payload := f.FirstPayload
	lw := lengthWeight(len(payload))
	if s.ignoreLength {
		if len(payload) == 0 {
			lw = 0
		} else {
			lw = 0.1 // flat, length-independent
		}
	}
	if lw == 0 {
		// The length feature already vetoed this payload; skip the
		// entropy pass entirely. Most cross-firewall traffic lands here,
		// so the common case never touches the payload bytes.
		return Result{}
	}
	ew := 0.6 // the DisableEntropy ablation's flat factor
	if !s.ignoreEntropy {
		// A bound pass answers base·lw ≥ (base·lw)·ew (ew ≤ 1) unmeasured
		// while base·lw·ew(0) > 0 keeps the exact verdict Suspect (ew is
		// non-decreasing, H ≥ 0); an underflowing product computes.
		if b := s.base * lw; sc.bound && !sc.entOK && b*entropyWeight(0) > 0 {
			return Result{Verdict: Suspect, Confidence: b}
		}
		ew = entropyWeight(sc.Entropy())
	}
	p := s.base * lw * ew
	if p <= 0 {
		return Result{}
	}
	return Result{Verdict: Suspect, Confidence: p}
}
