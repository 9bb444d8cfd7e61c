package detector

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"sslab/internal/entropy"
	"sslab/internal/netsim"
)

// --- Shadowsocks stage weights (moved from internal/gfw) -----------------

func TestLengthWeightSupport(t *testing.T) {
	for _, n := range []int{0, 1, 100, 159, 1000, 1500} {
		if w := lengthWeight(n); w != 0 {
			t.Errorf("lengthWeight(%d) = %v, want 0 (outside Figure 8 support)", n, w)
		}
	}
	if lengthWeight(160) == 0 || lengthWeight(999) == 0 {
		t.Error("in-support lengths have zero weight")
	}
}

func TestLengthWeightRemainders(t *testing.T) {
	// In 160–263 remainder 9 must dominate; in 384–687 remainder 2.
	if lengthWeight(169) <= lengthWeight(170) { // 169%16==9
		t.Error("remainder 9 not privileged in low band")
	}
	if lengthWeight(402) <= lengthWeight(403) { // 402%16==2
		t.Error("remainder 2 not privileged in high band")
	}
	// Middle band mixes both.
	if lengthWeight(265) < 0.5 || lengthWeight(274) < 0.5 { // 265%16=9, 274%16=2
		t.Error("middle band does not mix remainders 9 and 2")
	}
}

// TestEntropyWeightRatio pins Figure 9's headline: H=7.2 is ≈4× H=3.0.
func TestEntropyWeightRatio(t *testing.T) {
	ratio := entropyWeight(7.2) / entropyWeight(3.0)
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("weight(7.2)/weight(3.0) = %.2f, want ≈4", ratio)
	}
	if entropyWeight(0) <= 0 {
		t.Error("zero-entropy payloads must remain replayable (Figure 9 shows all entropies)")
	}
	if entropyWeight(8) != 1 {
		t.Errorf("weight(8) = %v, want 1", entropyWeight(8))
	}
}

// TestShadowsocksStageConfidence: the stage's Suspect confidence must be
// exactly base × lengthWeight × entropyWeight — the recording
// probability internal/gfw's pre-refactor detector computed.
func TestShadowsocksStageConfidence(t *testing.T) {
	gen := entropy.NewGenerator(3)
	payload := gen.Random(409) // 409%16==9: top length weight
	var sc Scratch
	sc.reset(payload, false)
	st := &ssStage{base: 0.04}
	res := st.Observe(&netsim.Flow{FirstPayload: payload}, &sc)
	if res.Verdict != Suspect {
		t.Fatalf("verdict = %v, want suspect", res.Verdict)
	}
	want := 0.04 * lengthWeight(len(payload)) * entropyWeight(entropy.Shannon(payload))
	if res.Confidence != want {
		t.Errorf("confidence = %v, want %v", res.Confidence, want)
	}

	// Out-of-support lengths pass without touching the entropy scratch.
	sc.reset(payload[:80], false)
	if res := st.Observe(&netsim.Flow{FirstPayload: payload[:80]}, &sc); res.Verdict != Pass {
		t.Errorf("80-byte payload verdict = %v, want pass", res.Verdict)
	}
	if sc.entOK {
		t.Error("length-vetoed payload computed entropy anyway")
	}
}

// --- stage table ---------------------------------------------------------

// mustChain is NewChain failing the test on error.
func mustChain(tb testing.TB, names []string, p Params) *Chain {
	tb.Helper()
	c, err := NewChain(names, p)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// TestRegistryAndAliases: Names lists the four stages of the fixed
// table, sorted; a chain keeps the names it was given, in order; and
// the shorthand aliases the table once accepted ("ss", "tls", ...) are
// refused like any unknown name, with the four names listed.
func TestRegistryAndAliases(t *testing.T) {
	want := []string{StageFullyEncrypted, StageOpenVPN, StageShadowsocks, StageTLSExempt}
	if got := Names(); !slices.Equal(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	chain := []string{StageTLSExempt, StageShadowsocks, StageOpenVPN, StageFullyEncrypted}
	if got := mustChain(t, chain, Params{}).Names(); !slices.Equal(got, chain) {
		t.Fatalf("chain names = %v, want %v", got, chain)
	}
	for _, alias := range []string{"ss", "tls", "ovpn", "vpn", "fep", "obfs"} {
		_, err := NewChain([]string{alias}, Params{})
		if err == nil || !strings.Contains(err.Error(), "known: fullyencrypted, openvpn, shadowsocks, tlsexempt") {
			t.Errorf("NewChain(%q): error %v, want one listing the four stages", alias, err)
		}
	}
}

func TestNewChainErrors(t *testing.T) {
	if _, err := NewChain(nil, Params{}); err == nil {
		t.Error("empty chain accepted")
	}
	if _, err := NewChain([]string{"shadowsock"}, Params{}); err == nil {
		t.Error("unknown stage accepted")
	}
	if _, err := NewChain([]string{StageShadowsocks, StageOpenVPN, StageShadowsocks}, Params{}); err == nil {
		t.Error("duplicate stage accepted")
	}
	if err := ValidateNames([]string{StageShadowsocks, StageOpenVPN}); err != nil {
		t.Errorf("ValidateNames rejected a valid chain: %v", err)
	}
}

// --- chain semantics -----------------------------------------------------

// corpus builds a payload set covering every stage's territory: SS-shaped
// random bytes, OpenVPN resets (both layouts), TLS hellos, printable
// HTTP, short and empty payloads, corrupted resets.
func corpus(t *testing.T) [][]byte {
	t.Helper()
	gen := entropy.NewGenerator(17)
	rng := rand.New(rand.NewSource(18))
	var out [][]byte
	out = append(out, nil, []byte{}, []byte("GET / HTTP/1.1\r\nHost: example.com\r\n\r\n"))
	for i := 0; i < 60; i++ {
		out = append(out, gen.Random(1+rng.Intn(1200)))        // random, all lengths
		out = append(out, gen.Payload(100+rng.Intn(800), 3.0)) // low entropy
		out = append(out, gen.Payload(160+rng.Intn(600), 5.5)) // hello-like entropy
	}
	// TLS-framed payloads.
	for i := 0; i < 20; i++ {
		body := 200 + rng.Intn(400)
		p := gen.Random(5 + body)
		p[0], p[1], p[2] = 0x16, 0x03, 0x03
		p[3], p[4] = byte(body>>8), byte(body)
		out = append(out, p)
	}
	// Well-formed and corrupted OpenVPN resets.
	for i := 0; i < 20; i++ {
		for _, auth := range []bool{false, true} {
			p := buildReset(rng, auth)
			out = append(out, p)
			bad := append([]byte(nil), p...)
			bad[rng.Intn(len(bad))] ^= 1 << uint(rng.Intn(8))
			out = append(out, bad)
		}
	}
	return out
}

// buildReset hand-assembles a client reset for tests.
func buildReset(rng *rand.Rand, auth bool) []byte {
	n := resetPlainLen
	if auth {
		n = resetAuthLen
	}
	p := make([]byte, n)
	p[0], p[1] = byte((n-2)>>8), byte(n-2)
	p[2] = OpControlHardResetClientV2 << 3
	rng.Read(p[3:11])
	if auth {
		rng.Read(p[11:31]) // HMAC
		p[34] = 1          // packet ID 1
		rng.Read(p[35:39]) // net time
	}
	return p
}

// permutations returns all orderings of names.
func permutations(names []string) [][]string {
	if len(names) <= 1 {
		return [][]string{append([]string(nil), names...)}
	}
	var out [][]string
	for i := range names {
		rest := make([]string, 0, len(names)-1)
		rest = append(rest, names[:i]...)
		rest = append(rest, names[i+1:]...)
		for _, perm := range permutations(rest) {
			out = append(out, append([]string{names[i]}, perm...))
		}
	}
	return out
}

// TestChainOrderIndependence: the combined verdict, confidence and
// winning stage name must be identical for every permutation of a chain
// — the combine rule (exempt veto, max confidence, name tie-break) is
// commutative by construction.
func TestChainOrderIndependence(t *testing.T) {
	stages := []string{StageTLSExempt, StageShadowsocks, StageOpenVPN, StageFullyEncrypted}
	perms := permutations(stages)
	chains := make([]*Chain, len(perms))
	for i, p := range perms {
		chains[i] = mustChain(t, p, Params{})
	}
	for pi, payload := range corpus(t) {
		f := &netsim.Flow{FirstPayload: payload}
		refIdx, refRes := chains[0].Observe(f)
		refName := ""
		if refIdx >= 0 {
			refName = chains[0].names[refIdx]
		}
		for ci := 1; ci < len(chains); ci++ {
			idx, res := chains[ci].Observe(f)
			name := ""
			if idx >= 0 {
				name = chains[ci].names[idx]
			}
			if res != refRes || name != refName {
				t.Fatalf("payload %d (len %d): order %v gave (%s, %+v); order %v gave (%s, %+v)",
					pi, len(payload), perms[0], refName, refRes, perms[ci], name, res)
			}
		}
	}
}

// TestChainExemptVeto: a TLS-framed payload that the Shadowsocks stage
// would flag is vetoed by the tlsexempt stage, in either order.
func TestChainExemptVeto(t *testing.T) {
	gen := entropy.NewGenerator(9)
	body := 404 // in-support length, high entropy
	p := gen.Random(5 + body)
	p[0], p[1], p[2] = 0x16, 0x03, 0x01
	p[3], p[4] = byte(body>>8), byte(body)
	f := &netsim.Flow{FirstPayload: p}

	bare := mustChain(t, []string{StageShadowsocks}, Params{})
	if _, res := bare.Observe(f); res.Verdict != Suspect {
		t.Fatal("test payload not suspect without the whitelist; corpus broken")
	}
	for _, names := range [][]string{
		{StageTLSExempt, StageShadowsocks},
		{StageShadowsocks, StageTLSExempt},
	} {
		c := mustChain(t, names, Params{})
		if _, res := c.Observe(f); res.Verdict != Exempt {
			t.Errorf("chain %v: verdict %v, want exempt", names, res.Verdict)
		}
	}
}

// TestChainWinnerAttribution: the returned index names the stage whose
// confidence decided the flow.
func TestChainWinnerAttribution(t *testing.T) {
	c := mustChain(t, []string{StageShadowsocks, StageOpenVPN, StageFullyEncrypted}, Params{})
	rng := rand.New(rand.NewSource(4))

	reset := buildReset(rng, false)
	idx, res := c.Observe(&netsim.Flow{FirstPayload: reset})
	if res.Verdict != Suspect || c.names[idx] != StageOpenVPN {
		t.Errorf("reset: winner %q (%+v), want openvpn", c.names[idx], res)
	}
	if res.Confidence != openvpnConfidence {
		t.Errorf("reset confidence %v, want %v", res.Confidence, openvpnConfidence)
	}

	// A long max-entropy payload is claimed by the fully-encrypted stage
	// (its rate beats the Shadowsocks stage's base rate).
	gen := entropy.NewGenerator(5)
	long := gen.Random(700)
	idx, res = c.Observe(&netsim.Flow{FirstPayload: long})
	if res.Verdict != Suspect || c.names[idx] != StageFullyEncrypted {
		t.Errorf("random 700B: winner %q (%+v), want fullyencrypted", c.names[idx], res)
	}
}

// TestChainObserveAllocs pins the hot path at zero allocations: Observe,
// and the censor's bound pass followed by Decide with a draw of 0, which
// lands under every positive bound and so runs the exact pass too.
func TestChainObserveAllocs(t *testing.T) {
	c := mustChain(t, []string{StageShadowsocks, StageOpenVPN, StageFullyEncrypted}, Params{})
	gen := entropy.NewGenerator(6)
	payloads := [][]byte{
		gen.Random(409),
		gen.Random(700),
		gen.Payload(265, 3),
		buildReset(rand.New(rand.NewSource(7)), true),
		[]byte("GET / HTTP/1.1\r\n\r\n"),
	}
	f := &netsim.Flow{}
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		f.FirstPayload = payloads[i%len(payloads)]
		i++
		c.Observe(f)
	}); n != 0 {
		t.Errorf("Chain.Observe allocates %.1f per op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		f.FirstPayload = payloads[i%len(payloads)]
		i++
		if b := c.Bound(f); b.Verdict == Suspect {
			c.Decide(f, b, 0)
		}
	}); n != 0 {
		t.Errorf("Chain.Bound then Decide allocates %.1f per op, want 0", n)
	}
}

// --- bound pass ----------------------------------------------------------

// boundChains are the chain shapes the bound-pass properties run over:
// the Shadowsocks stage alone, behind the TLS veto, beside the OpenVPN
// and fully-encrypted stages, and all four.
var boundChains = [][]string{
	{StageShadowsocks},
	{StageTLSExempt, StageShadowsocks},
	{StageShadowsocks, StageOpenVPN, StageFullyEncrypted},
	{StageTLSExempt, StageShadowsocks, StageOpenVPN, StageFullyEncrypted},
}

// checkBound asserts the bound-pass contract on one flow, with ref (a
// chain of the same stages and Params) as the Observe reference: c's
// bound pass keeps Observe's verdict and never lowers its confidence;
// the exact pass right after it (as Decide runs it) returns Observe's
// winner and result; and Decide answers u < Observe's confidence,
// naming Observe's winner, for draws just below, at and just above both
// the exact confidence and the bound. It reports whether the bound
// exceeded the exact confidence.
func checkBound(t testing.TB, c, ref *Chain, f *netsim.Flow) bool {
	t.Helper()
	wantIdx, want := ref.Observe(f)
	bound := c.Bound(f)
	if bound.Verdict != want.Verdict || !(bound.Confidence >= want.Confidence) {
		t.Fatalf("chain %v, %d-byte payload: bound pass %+v, Observe %+v", c.names, len(f.FirstPayload), bound, want)
	}
	c.scratch.bound = false
	if i, res := c.combine(f); i != wantIdx || res != want {
		t.Fatalf("chain %v, %d-byte payload: exact pass (%d, %+v), Observe (%d, %+v)",
			c.names, len(f.FirstPayload), i, res, wantIdx, want)
	}
	if want.Verdict == Suspect {
		for _, v := range []float64{want.Confidence, bound.Confidence} {
			for _, u := range []float64{math.Nextafter(v, 0), v, math.Nextafter(v, 2)} {
				c.Bound(f)
				i, ok := c.Decide(f, bound, u)
				if ok != (u < want.Confidence) || ok && i != wantIdx {
					t.Fatalf("chain %v, %d-byte payload, draw %v: Decide (%d, %v), Observe (%d, %+v)",
						c.names, len(f.FirstPayload), u, i, ok, wantIdx, want)
				}
			}
		}
	}
	return bound.Confidence > want.Confidence
}

// TestChainBoundMatchesObserve runs checkBound over the chain corpus
// plus payloads of every length to 1,200 bytes and entropy to 8 bits
// per byte, for each bound chain under the default Params, a base of 1,
// the smallest positive base (whose bound underflows, so the stage must
// compute) and either feature ablated.
func TestChainBoundMatchesObserve(t *testing.T) {
	payloads := corpus(t)
	gen := entropy.NewGenerator(23)
	for i := 0; i < 1500; i++ {
		payloads = append(payloads, gen.Payload(gen.Intn(1201), 8*gen.Float64()))
	}
	for _, p := range []Params{{}, {Base: 1}, {Base: math.SmallestNonzeroFloat64}, {DisableLength: true}, {DisableEntropy: true}} {
		for _, names := range boundChains {
			c, ref := mustChain(t, names, p), mustChain(t, names, p)
			bounded := 0
			for _, payload := range payloads {
				if checkBound(t, c, ref, &netsim.Flow{FirstPayload: payload}) {
					bounded++
				}
			}
			// The bound is strict for every in-support payload under
			// 7.2 bits per byte unless the entropy is not needed
			// (DisableEntropy) or the bound product underflows.
			if strict := !p.DisableEntropy && p.Base != math.SmallestNonzeroFloat64; strict != (bounded > 0) {
				t.Errorf("%+v, chain %v: %d bounds above the exact confidence", p, names, bounded)
			}
		}
	}
}

// TestBoundPassSkipsEntropy: on the Shadowsocks chain the bound pass
// leaves an in-support payload's entropy unmeasured, a draw at or above
// the bound keeps it so, and only a draw under the bound measures it.
// A bound that would underflow measures it in the bound pass, and the
// DisableEntropy ablation never does. An entropy the bound pass measured
// for the fully-encrypted stage's verdict is not measured again.
func TestBoundPassSkipsEntropy(t *testing.T) {
	f := &netsim.Flow{FirstPayload: entropy.NewGenerator(8).Payload(265, 4)} // 265%16 == 9
	c := mustChain(t, []string{StageShadowsocks}, Params{})
	b := c.Bound(f)
	if want := 0.04 * lengthWeight(265); b != (Result{Verdict: Suspect, Confidence: want}) {
		t.Fatalf("bound pass %+v, want suspect at base × length weight %v", b, want)
	}
	if c.scratch.entOK {
		t.Fatal("bound pass measured the entropy")
	}
	if _, ok := c.Decide(f, b, b.Confidence); ok || c.scratch.entOK {
		t.Fatalf("a draw at the bound recorded (%v) or measured the entropy (%v)", ok, c.scratch.entOK)
	}
	c.Bound(f)
	c.Decide(f, b, math.Nextafter(b.Confidence, 0))
	if !c.scratch.entOK {
		t.Fatal("a draw under the bound decided without the entropy")
	}

	tiny := mustChain(t, []string{StageShadowsocks}, Params{Base: math.SmallestNonzeroFloat64})
	tiny.Bound(f)
	if !tiny.scratch.entOK {
		t.Error("an underflowing bound was taken without measuring the entropy")
	}
	flat := mustChain(t, []string{StageShadowsocks}, Params{DisableEntropy: true})
	flat.Decide(f, flat.Bound(f), 0)
	if flat.scratch.entOK {
		t.Error("the DisableEntropy ablation measured the entropy")
	}

	two := mustChain(t, []string{StageShadowsocks, StageFullyEncrypted}, Params{})
	f = &netsim.Flow{FirstPayload: entropy.NewGenerator(8).Random(409)}
	b = two.Bound(f)
	if !two.scratch.entOK {
		t.Fatal("the fully-encrypted verdict was judged without the entropy")
	}
	two.scratch.ent = -1 // a second measurement would overwrite it
	two.Decide(f, b, 0)
	if two.scratch.ent != -1 {
		t.Error("the exact pass measured the entropy again")
	}
}

// FuzzChainBound runs checkBound over arbitrary payloads, any finite
// non-negative Base, and every bound chain with either ablation (the
// low two bits of shape pick the chain, bits 2 and 3 the ablations).
func FuzzChainBound(f *testing.F) {
	gen := entropy.NewGenerator(29)
	f.Add([]byte{}, 0.0, uint8(0))
	f.Add(gen.Random(409), 0.04, uint8(0))
	f.Add(gen.Payload(265, 3), 1.0, uint8(1))
	f.Add(gen.Random(700), math.SmallestNonzeroFloat64, uint8(2))
	f.Add(gen.Payload(402, 7), 0.3, uint8(3|4))
	f.Add(gen.Payload(169, 5), 0.04, uint8(2|8))
	f.Fuzz(func(t *testing.T, payload []byte, base float64, shape uint8) {
		if !(base >= 0) || math.IsInf(base, 1) {
			t.Skip("Base must be finite and non-negative")
		}
		names := boundChains[shape%4]
		p := Params{Base: base, DisableLength: shape&4 != 0, DisableEntropy: shape&8 != 0}
		checkBound(t, mustChain(t, names, p), mustChain(t, names, p), &netsim.Flow{FirstPayload: payload})
	})
}
