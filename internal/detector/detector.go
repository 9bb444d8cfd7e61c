// Package detector is the censor's pluggable passive-analysis layer: a
// registry of composable per-protocol detector stages and a chain
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
// does not depend on the order stages were registered or listed (pinned
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
package detector

import (
	"fmt"
	"sort"
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

// Result is a stage's verdict plus, for Suspect, the probability in
// (0, 1] that the censor acts on the flow (records it for replay-based
// active probing). The zero Result is Pass.
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
	// Name returns the stage's canonical registry name.
	Name() string
	// Observe judges one flow. sc is the chain's shared scratch; use
	// sc.Entropy() instead of computing Shannon entropy directly so the
	// pass is shared between stages.
	Observe(f *netsim.Flow, sc *Scratch) Result
}

// Params carries the tuning a chain hands to every stage factory. The
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
// stage evaluation allocates nothing.
type Scratch struct {
	payload []byte
	ent     float64
	entOK   bool
}

// reset points the scratch at a new flow's first payload.
func (sc *Scratch) reset(payload []byte) {
	sc.payload = payload
	sc.entOK = false
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

// Factory builds one configured stage instance.
type Factory func(Params) Stage

// factories is the stage registry; registered at init time, read-only
// afterwards. registered mirrors its keys in sorted order so listing
// never iterates the map.
var (
	factories  = map[string]Factory{}
	registered []string
)

// register adds a stage factory under its canonical name. Called from
// init functions only.
func register(name string, f Factory) {
	if _, dup := factories[name]; dup {
		panic("detector: duplicate stage " + name)
	}
	factories[name] = f
	registered = append(registered, name)
	sort.Strings(registered)
}

// aliases maps accepted shorthand names to canonical stage names.
var aliases = map[string]string{
	"ss":   StageShadowsocks,
	"tls":  StageTLSExempt,
	"ovpn": StageOpenVPN,
	"vpn":  StageOpenVPN,
	"fep":  StageFullyEncrypted,
	"obfs": StageFullyEncrypted,
}

// Canonical resolves a stage name or alias to its canonical registry
// name; unknown names pass through unchanged (NewChain rejects them
// with the full known-name list).
func Canonical(name string) string {
	if c, ok := aliases[name]; ok {
		return c
	}
	return name
}

// Names returns the canonical names of all registered stages, sorted.
func Names() []string {
	return append([]string(nil), registered...)
}

// ValidateNames checks that every entry of names (after alias
// resolution) is a registered stage and that no stage repeats.
func ValidateNames(names []string) error {
	seen := map[string]bool{}
	for _, n := range names {
		c := Canonical(n)
		if _, ok := factories[c]; !ok {
			return fmt.Errorf("detector: unknown stage %q (known: %s)", n, strings.Join(Names(), ", "))
		}
		if seen[c] {
			return fmt.Errorf("detector: stage %q listed twice", c)
		}
		seen[c] = true
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

// NewChain builds a chain from stage names or aliases. The list must be
// non-empty and free of duplicates after alias resolution.
func NewChain(names []string, p Params) (*Chain, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("detector: empty chain")
	}
	if err := ValidateNames(names); err != nil {
		return nil, err
	}
	p = p.withDefaults()
	c := &Chain{
		stages: make([]Stage, len(names)),
		names:  make([]string, len(names)),
	}
	for i, n := range names {
		canon := Canonical(n)
		c.stages[i] = factories[canon](p)
		c.names[i] = canon
	}
	return c, nil
}

// MustChain is NewChain panicking on error, for wiring known-good
// configurations.
func MustChain(names []string, p Params) *Chain {
	c, err := NewChain(names, p)
	if err != nil {
		panic(err)
	}
	return c
}

// Names returns the chain's canonical stage names in evaluation order.
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
	c.scratch.reset(f.FirstPayload)
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
