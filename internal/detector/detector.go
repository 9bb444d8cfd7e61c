// Package detector is the censor's passive-analysis layer: a fixed
// table of four composable per-protocol detector stages and a chain
// evaluator that reduces their verdicts to one flow-level decision.
//
// The paper's censor hard-codes a single pipeline (TLS exemption →
// length/entropy heuristics → active probing), but real middlebox
// deployments detect many protocol families at once. This package
// factors the per-protocol judgment out of internal/gfw: each family is
// a Stage that inspects a flow's first payload and returns a verdict
// with a confidence, and internal/gfw evaluates a configured Chain of
// stages, treating the winning confidence as the probability of
// recording the flow for active probing.
//
// Chain semantics are commutative by construction, so a chain's verdict
// does not depend on the order stages are listed in (pinned
// by TestChainOrderIndependence):
//
//   - any Exempt verdict vetoes the whole flow (whitelisting);
//   - otherwise the result is the Suspect verdict with the highest
//     confidence, ties broken toward the lexically smallest stage name;
//   - no Suspect verdicts means the flow passes.
//
// Stages run on the censor's per-flow hot path and must not allocate:
// anything a stage needs beyond the flow itself lives in the Scratch
// the chain shares across its stages, which also memoizes the Shannon
// entropy of the first payload so at most one entropy pass happens per
// flow no matter how many stages consult it.
//
// The censor judges a flow with Bound, in which the Shadowsocks stage
// answers an entropy-free upper bound on its confidence, and Decide,
// which measures the entropy only for a coin landing under that bound.
// The fully-encrypted stage's verdict is an entropy threshold, so it
// measures in either pass.
package detector

import (
	"fmt"
	"slices"
	"strings"

	"sslab/internal/entropy"
	"sslab/internal/netsim"
)

// Verdict is a stage's judgment of one flow.
type Verdict uint8

const (
	// Pass: the stage has no opinion about this flow.
	Pass Verdict = iota
	// Exempt: the flow is positively identified as traffic the censor
	// must not probe (e.g. TLS under a whitelist policy); it vetoes any
	// Suspect verdict from other stages.
	Exempt
	// Suspect: the flow matches the stage's protocol fingerprint with
	// the result's confidence.
	Suspect
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case Pass:
		return "pass"
	case Exempt:
		return "exempt"
	case Suspect:
		return "suspect"
	default:
		return fmt.Sprintf("verdict(%d)", uint8(v))
	}
}

// Result is a stage's verdict plus, for Suspect, the positive probability
// that the censor acts on the flow (records it for replay probing; 1 or
// more means always). The zero Result is Pass.
type Result struct {
	Verdict    Verdict
	Confidence float64
}

// Stage is one protocol family's passive detector. Observe inspects a
// single flow (its first payload, direction metadata) and judges it.
// Implementations must be deterministic, must not retain f or the
// payload, and must not allocate — per-flow working state belongs in
// the shared Scratch.
type Stage interface {
	// Observe judges one flow. sc is the chain's shared scratch; use
	// sc.Entropy() instead of computing Shannon entropy directly so the
	// pass is shared between stages. In a bound pass (Chain.Bound) a
	// stage may overstate its confidence to avoid work, never its verdict.
	Observe(f *netsim.Flow, sc *Scratch) Result
}

// Params carries the tuning a chain hands to every stage it builds. The
// zero value selects paper-calibrated defaults.
type Params struct {
	// Base scales the Shadowsocks stage's recording rate (the censor's
	// sampling budget; gfw.Config.ReplayBase). Default 0.04.
	Base float64
	// DisableLength / DisableEntropy are the Shadowsocks stage's
	// feature-ablation switches.
	DisableLength  bool
	DisableEntropy bool
}

func (p Params) withDefaults() Params {
	if p.Base == 0 {
		p.Base = 0.04
	}
	return p
}

// Scratch is the per-flow working state a chain shares across its
// stages. One Scratch lives inside each Chain and is reset per flow, so
// stage evaluation allocates nothing. The entropy is measured on first
// use and kept for the flow, the exact pass after a bound pass included.
type Scratch struct {
	payload []byte
	ent     float64
	entOK   bool
	bound   bool // a bound pass: confidences may be upper bounds
}

// reset points the scratch at a new flow's first payload.
func (sc *Scratch) reset(payload []byte, bound bool) {
	sc.payload = payload
	sc.entOK = false
	sc.bound = bound
}

// Entropy returns the per-byte Shannon entropy of the flow's first
// payload, computing it at most once per flow however many stages ask.
//
//sslab:hotpath
func (sc *Scratch) Entropy() float64 {
	if !sc.entOK {
		sc.ent = entropy.Shannon(sc.payload)
		sc.entOK = true
	}
	return sc.ent
}

// stageTable is the fixed set of stages, sorted by name: Names lists
// it and NewChain builds each listed stage from its row.
var stageTable = []struct {
	name  string
	build func(Params) Stage
}{
	{StageFullyEncrypted, func(Params) Stage { return fepStage{} }},
	{StageOpenVPN, func(Params) Stage { return openvpnStage{} }},
	{StageShadowsocks, func(p Params) Stage {
		return &ssStage{base: p.Base, ignoreLength: p.DisableLength, ignoreEntropy: p.DisableEntropy}
	}},
	{StageTLSExempt, func(Params) Stage { return tlsStage{} }},
}

// stageIndex returns name's row in stageTable, or -1.
func stageIndex(name string) int {
	for i, st := range stageTable {
		if st.name == name {
			return i
		}
	}
	return -1
}

// Names returns the names of all stages, sorted.
func Names() []string {
	out := make([]string, len(stageTable))
	for i, st := range stageTable {
		out[i] = st.name
	}
	return out
}

// ValidateNames checks that every entry of names is a stage name and
// that no stage repeats.
func ValidateNames(names []string) error {
	for i, n := range names {
		if stageIndex(n) < 0 {
			return fmt.Errorf("detector: unknown stage %q (known: %s)", n, strings.Join(Names(), ", "))
		}
		if slices.Contains(names[:i], n) {
			return fmt.Errorf("detector: stage %q listed twice", n)
		}
	}
	return nil
}

// Chain is an ordered list of configured stages sharing one Scratch.
// Construct with NewChain; a Chain is not safe for concurrent use (the
// scratch is shared), matching the single-threaded simulator.
type Chain struct {
	stages  []Stage
	names   []string
	scratch Scratch
}

// NewChain builds a chain from stage names. The list must be non-empty
// and free of duplicates.
func NewChain(names []string, p Params) (*Chain, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("detector: empty chain")
	}
	if err := ValidateNames(names); err != nil {
		return nil, err
	}
	p = p.withDefaults()
	c := &Chain{stages: make([]Stage, len(names)), names: slices.Clone(names)}
	for i, n := range names {
		c.stages[i] = stageTable[stageIndex(n)].build(p)
	}
	return c, nil
}

// Names returns the chain's stage names in evaluation order.
func (c *Chain) Names() []string {
	return append([]string(nil), c.names...)
}

// Len returns the number of stages.
func (c *Chain) Len() int { return len(c.stages) }

// Observe evaluates every stage against the flow and combines their
// verdicts: Exempt vetoes everything, otherwise the highest-confidence
// Suspect wins with ties broken toward the lexically smallest stage
// name. It returns the index of the deciding stage (-1 when every stage
// passed) and the combined result. The combine rule is commutative, so
// the result does not depend on stage order; the veto may short-circuit
// because later stages cannot change an Exempt outcome.
//
//sslab:hotpath
func (c *Chain) Observe(f *netsim.Flow) (int, Result) {
	c.scratch.reset(f.FirstPayload, false)
	return c.combine(f)
}

// Bound is Observe for a caller that acts on a Suspect flow with the
// confidence as probability: stages may overstate their confidence to
// avoid work (the Shadowsocks stage skips the entropy pass), so the
// verdict is Observe's and the confidence at least Observe's.
//
//sslab:hotpath
func (c *Chain) Bound(f *netsim.Flow) Result {
	c.scratch.reset(f.FirstPayload, true)
	_, res := c.combine(f)
	return res
}

// Decide reports whether the draw u lands under Observe's confidence for
// f, which Bound just judged Suspect at bound, and if so Observe's
// winner. Only a draw under the bound runs the exact pass, on the same
// scratch, so an entropy the bound pass measured is not measured again.
//
//sslab:hotpath
func (c *Chain) Decide(f *netsim.Flow, bound Result, u float64) (int, bool) {
	if u >= bound.Confidence {
		return -1, false
	}
	c.scratch.bound = false
	i, res := c.combine(f)
	return i, u < res.Confidence
}

// combine runs the stages and reduces their verdicts as Observe does.
//
//sslab:hotpath
func (c *Chain) combine(f *netsim.Flow) (int, Result) {
	best := Result{}
	bestIdx := -1
	for i, st := range c.stages {
		r := st.Observe(f, &c.scratch)
		switch r.Verdict {
		case Exempt:
			return i, Result{Verdict: Exempt}
		case Suspect:
			if bestIdx < 0 || r.Confidence > best.Confidence ||
				(r.Confidence == best.Confidence && c.names[i] < c.names[bestIdx]) {
				best, bestIdx = r, i
			}
		}
	}
	return bestIdx, best
}
