package netsim

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"sslab/internal/reaction"
)

// copyBox is a middlebox that snapshots each flow by value: a Flow is
// valid only until Connect returns, so retaining the pointer would be a
// bug.
type copyBox struct {
	flows    []Flow
	outcomes []Outcome
}

func (b *copyBox) OnFlow(f *Flow)               { b.flows = append(b.flows, *f) }
func (b *copyBox) OnOutcome(f *Flow, o Outcome) { b.outcomes = append(b.outcomes, o) }

// connEnv is one world for the Connect tests: a network with one
// responding host, one absent endpoint, one blocked server, and a
// middlebox observing the border.
type connEnv struct {
	sim     *Sim
	net     *Network
	box     *copyBox
	served  Endpoint
	absent  Endpoint
	blocked Endpoint
	silent  []Flow // nil-payload flows the blocked server's host saw
}

func newConnEnv(opts ...NetworkOption) *connEnv {
	e := &connEnv{
		served:  Endpoint{IP: "10.0.0.1", Port: 8388},
		absent:  Endpoint{IP: "10.0.0.2", Port: 8388},
		blocked: Endpoint{IP: "10.0.0.3", Port: 8388},
	}
	e.sim = NewSim()
	e.net = NewNetwork(e.sim, opts...)
	e.net.AddHost(e.served, HostFunc(func(f *Flow) Outcome {
		return Outcome{Reaction: reaction.Data, ResponseLen: len(f.FirstPayload)}
	}))
	e.net.AddHost(e.blocked, HostFunc(func(f *Flow) Outcome {
		if f.FirstPayload == nil {
			e.silent = append(e.silent, *f)
		}
		return Outcome{Reaction: reaction.Timeout}
	}))
	e.box = &copyBox{}
	e.net.AddMiddlebox(e.box)
	e.net.BlockPort(e.blocked)
	return e
}

// mixedSpecs builds a spec sequence exercising every path: served,
// no-host RST, blocked, probes, empty payloads.
func mixedSpecs(e *connEnv) []FlowSpec {
	client := Endpoint{IP: "192.168.1.2", Port: 40000}
	gen := time.Time{}
	return []FlowSpec{
		{Client: client, Server: e.served, FirstPayload: []byte("alpha")},
		{Client: client, Server: e.served, FirstPayload: []byte("beta"), Probe: true, GeneratedAt: Epoch.Add(-time.Hour)},
		{Client: client, Server: e.blocked, FirstPayload: []byte("gamma")},
		{Client: client, Server: e.absent, FirstPayload: []byte("delta"), GeneratedAt: gen},
		{Client: client, Server: e.served, FirstPayload: nil},
		{Client: client, Server: e.served, FirstPayload: []byte("epsilon")},
		{Client: client, Server: e.blocked, FirstPayload: []byte("zeta")},
		{Client: client, Server: e.served, FirstPayload: []byte("eta")},
	}
}

func sameFlows(t *testing.T, label string, a, b []Flow) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: saw %d vs %d flows", label, len(a), len(b))
	}
	for i := range a {
		fa, fb := a[i], b[i]
		same := fa.ID == fb.ID && fa.Client == fb.Client && fa.Server == fb.Server &&
			bytes.Equal(fa.FirstPayload, fb.FirstPayload) &&
			fa.Start.Equal(fb.Start) && fa.Probe == fb.Probe &&
			fa.GeneratedAt.Equal(fb.GeneratedAt)
		if !same {
			t.Fatalf("%s: flow %d diverges:\n  want %+v\n  got  %+v", label, i, fa, fb)
		}
	}
}

// TestConnectBatchMatchesConnect: ConnectBatch over a mixed spec
// sequence — served, probe, blocked, absent-host, empty-payload — is
// observably identical to the same Connect calls in order: same
// outcomes, same flow IDs and counters, same middlebox observations,
// and the same silenced host deliveries for blocked servers.
func TestConnectBatchMatchesConnect(t *testing.T) {
	ref := newConnEnv()
	refSpecs := mixedSpecs(ref)
	var want []Outcome
	for _, sp := range refSpecs {
		want = append(want, ref.net.Connect(sp.Client, sp.Server, sp.FirstPayload, sp.Probe, sp.GeneratedAt))
	}

	e := newConnEnv()
	got := e.net.ConnectBatch(mixedSpecs(e), nil)

	if len(got) != len(want) {
		t.Fatalf("outcomes: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("outcome %d: batch %+v, scalar %+v", i, got[i], want[i])
		}
	}
	if e.net.Flows != ref.net.Flows || e.net.nextID != ref.net.nextID {
		t.Errorf("counters: batch Flows=%d nextID=%d, scalar Flows=%d nextID=%d",
			e.net.Flows, e.net.nextID, ref.net.Flows, ref.net.nextID)
	}
	sameFlows(t, "middlebox", ref.box.flows, e.box.flows)
	sameFlows(t, "silenced host flows", ref.silent, e.silent)
	if len(e.box.outcomes) != len(ref.box.outcomes) {
		t.Errorf("OnOutcome calls: %d vs %d", len(e.box.outcomes), len(ref.box.outcomes))
	}
}

// TestConnectBatchImpairedEquivalence: over impaired links batch and
// scalar delivery draw the identical per-link RNG sequence and produce
// identical outcomes.
func TestConnectBatchImpairedEquivalence(t *testing.T) {
	profile := LinkProfile{LatencyBase: 30 * time.Millisecond, Jitter: 20 * time.Millisecond, Loss: 0.2}
	mk := func() (*connEnv, []FlowSpec) {
		e := newConnEnv(WithDefaultLink(profile))
		var specs []FlowSpec
		client := Endpoint{IP: "192.168.1.2", Port: 40000}
		for i := 0; i < 200; i++ {
			specs = append(specs, FlowSpec{Client: client, Server: e.served,
				FirstPayload: []byte(fmt.Sprintf("payload-%03d", i))})
		}
		return e, specs
	}

	ref, refSpecs := mk()
	var want []Outcome
	for _, sp := range refSpecs {
		want = append(want, ref.net.Connect(sp.Client, sp.Server, sp.FirstPayload, sp.Probe, sp.GeneratedAt))
	}
	e, specs := mk()
	got := e.net.ConnectBatch(specs, nil)
	if len(got) != len(want) {
		t.Fatalf("outcomes: %d vs %d", len(got), len(want))
	}
	dropped := 0
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("outcome %d: batch %+v, scalar %+v", i, got[i], want[i])
		}
		if got[i].Dropped {
			dropped++
		}
	}
	if dropped == 0 {
		t.Error("20% loss never dropped a flow; impaired path untested")
	}
	sameFlows(t, "impaired middlebox", ref.box.flows, e.box.flows)
}

// TestConnectBatchReusesArena: after warm-up, steady-state flows
// allocate nothing — the Flow arena and the caller's outcome buffer are
// reused — for a batch on ideal links and for single Connect calls on
// ideal links, on impaired links and to a null-routed server.
func TestConnectBatchReusesArena(t *testing.T) {
	client := Endpoint{IP: "192.168.1.2", Port: 40000}
	payload := []byte("steady-state-payload")

	e := newConnEnv()
	specs := make([]FlowSpec, 64)
	for i := range specs {
		specs[i] = FlowSpec{Client: client, Server: e.served, FirstPayload: payload}
	}
	var outs []Outcome
	requireAllocFree(t, "ConnectBatch", e, func() { outs = e.net.ConnectBatch(specs, outs[:0]) })
	if len(outs) != len(specs) {
		t.Fatalf("outcomes %d, want %d", len(outs), len(specs))
	}

	imp := newConnEnv(WithDefaultLink(LinkProfile{LatencyBase: 30 * time.Millisecond, Jitter: 10 * time.Millisecond, Loss: 0.01}))
	for _, c := range []struct {
		name   string
		e      *connEnv
		server Endpoint
	}{
		{"Connect on ideal links", e, e.served},
		{"Connect on impaired links", imp, imp.served},
		{"Connect to a blocked server", e, e.blocked},
	} {
		requireAllocFree(t, c.name, c.e, func() { c.e.net.Connect(client, c.server, payload, false, time.Time{}) })
	}
	if len(e.silent) == 0 {
		t.Error("the blocked server's host never saw a silenced flow")
	}
}

// requireAllocFree warms fn up, then requires it to allocate nothing;
// e's recordings are truncated before every call.
func requireAllocFree(t *testing.T, name string, e *connEnv, fn func()) {
	t.Helper()
	run := func() {
		e.box.flows, e.box.outcomes, e.silent = e.box.flows[:0], e.box.outcomes[:0], e.silent[:0]
		fn()
	}
	for i := 0; i < 8; i++ {
		run()
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Errorf("steady-state %s allocates %.1f/op, want 0", name, allocs)
	}
}

// TestConnectReentrant: a host that calls Connect from inside
// HandleFlow gets a Flow of its own, and its own Flow is unchanged when
// the nested call returns.
func TestConnectReentrant(t *testing.T) {
	e := newConnEnv()
	client := Endpoint{IP: "192.168.1.2", Port: 40000}
	relay := Endpoint{IP: "10.0.0.4", Port: 1080}
	var before, after Flow
	var nested Outcome
	e.net.AddHost(relay, HostFunc(func(f *Flow) Outcome {
		before = *f
		nested = e.net.Connect(relay, e.served, []byte("nested"), false, time.Time{})
		after = *f
		return Outcome{Reaction: reaction.Data, ResponseLen: len(f.FirstPayload)}
	}))

	o := e.net.Connect(client, relay, []byte("outer"), false, time.Time{})
	sameFlows(t, "outer flow across the nested Connect", []Flow{before}, []Flow{after})
	if after.ID != 1 || string(after.FirstPayload) != "outer" {
		t.Errorf("outer flow = %+v, want ID 1 carrying \"outer\"", after)
	}
	if want := (Outcome{Reaction: reaction.Data, ResponseLen: len("nested")}); nested != want {
		t.Errorf("nested outcome = %+v, want %+v", nested, want)
	}
	if want := (Outcome{Reaction: reaction.Data, ResponseLen: len("outer")}); o != want {
		t.Errorf("outer outcome = %+v, want %+v", o, want)
	}
	if len(e.box.flows) != 2 || e.box.flows[0].ID != 1 || e.box.flows[1].ID != 2 ||
		string(e.box.flows[1].FirstPayload) != "nested" {
		t.Errorf("middlebox saw %+v, want the outer flow then the nested one", e.box.flows)
	}
}

// TestConnectBatchEmpty: a zero-length batch is a no-op.
func TestConnectBatchEmpty(t *testing.T) {
	e := newConnEnv()
	if out := e.net.ConnectBatch(nil, nil); len(out) != 0 {
		t.Fatalf("empty batch produced %d outcomes", len(out))
	}
	if e.net.Flows != 0 {
		t.Fatalf("empty batch counted %d flows", e.net.Flows)
	}
}
