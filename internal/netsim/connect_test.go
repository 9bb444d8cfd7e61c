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
	flows []Flow
}

func (b *copyBox) OnFlow(f *Flow) { b.flows = append(b.flows, *f) }

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
			fa.GeneratedAt.Equal(fb.GeneratedAt) && fa.Replayed == fb.Replayed
		if !same {
			t.Fatalf("%s: flow %d diverges:\n  want %+v\n  got  %+v", label, i, fa, fb)
		}
	}
}

// TestConnectBatchMatchesConnect: ConnectBatch over a mixed spec
// sequence — served, probe, blocked, absent-host, empty-payload — is
// observably identical to the same Connect calls in order: same
// outcomes, same flow IDs and flow count, same middlebox observations,
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
	if e.net.Flows != ref.net.Flows {
		t.Errorf("flow count: batch %d, scalar %d", e.net.Flows, ref.net.Flows)
	}
	sameFlows(t, "middlebox", ref.box.flows, e.box.flows)
	sameFlows(t, "silenced host flows", ref.silent, e.silent)
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
// reused — for a batch on ideal links and for single Connect and Replay
// calls on ideal links, on impaired links and to a null-routed server.
// Replay marks its flow and Connect never does, even in the arena slot a
// marked flow used last; a silenced flow carries no payload and so no
// mark.
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
	silenced := 0
	for _, c := range []struct {
		name string
		e    *connEnv
		run  func(n *Network)
		// marks is Replayed per middlebox observation of the last run,
		// or nil when a lossy link may hide the flow from the middlebox.
		marks []bool
	}{
		{"Connect on ideal links", e, func(n *Network) { n.Connect(client, e.served, payload, false, time.Time{}) }, []bool{false}},
		{"Connect on impaired links", imp, func(n *Network) { n.Connect(client, imp.served, payload, false, time.Time{}) }, nil},
		{"Connect to a blocked server", e, func(n *Network) { n.Connect(client, e.blocked, payload, false, time.Time{}) }, []bool{}},
		{"Replay on ideal links", e, func(n *Network) { n.Replay(client, e.served, payload, Epoch) }, []bool{true}},
		{"Replay on impaired links", imp, func(n *Network) { n.Replay(client, imp.served, payload, Epoch) }, nil},
		{"Replay to a blocked server", e, func(n *Network) { n.Replay(client, e.blocked, payload, Epoch) }, []bool{}},
		{"Replay, then a probe Connect in the same slot", e, func(n *Network) {
			n.Replay(client, e.served, payload, Epoch)
			n.Connect(client, e.served, payload, true, Epoch)
		}, []bool{true, false}},
	} {
		requireAllocFree(t, c.name, c.e, func() { c.run(c.e.net) })
		silenced += len(c.e.silent)
		for _, f := range c.e.silent {
			if f.Replayed {
				t.Errorf("%s: silenced flow %d carries the replay mark", c.name, f.ID)
			}
		}
		if c.marks == nil {
			continue
		}
		got := make([]bool, len(c.e.box.flows))
		for i := range c.e.box.flows {
			got[i] = c.e.box.flows[i].Replayed
		}
		if fmt.Sprint(got) != fmt.Sprint(c.marks) {
			t.Errorf("%s: middlebox saw Replayed %v, want %v", c.name, got, c.marks)
		}
	}
	if silenced != 2 {
		t.Errorf("the blocked server's host saw %d silenced flows in the last runs, want 2", silenced)
	}
}

// requireAllocFree warms fn up, then requires it to allocate nothing;
// e's recordings are truncated before every call.
func requireAllocFree(t *testing.T, name string, e *connEnv, fn func()) {
	t.Helper()
	run := func() {
		e.box.flows, e.silent = e.box.flows[:0], e.silent[:0]
		fn()
	}
	for i := 0; i < 8; i++ {
		run()
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Errorf("steady-state %s allocates %.1f/op, want 0", name, allocs)
	}
}

// TestConnectReentrant: a host that calls Connect or Replay from inside
// HandleFlow gets a Flow of its own, and its own Flow is unchanged when
// the nested call returns. The replay mark belongs to one flow: a
// Connect nested in a replay's callback is unmarked, and a Replay nested
// in a Connect's callback is marked while the outer flow is not.
func TestConnectReentrant(t *testing.T) {
	for _, outerReplay := range []bool{false, true} {
		e := newConnEnv()
		client := Endpoint{IP: "192.168.1.2", Port: 40000}
		relay := Endpoint{IP: "10.0.0.4", Port: 1080}
		var before, after Flow
		var nested Outcome
		e.net.AddHost(relay, HostFunc(func(f *Flow) Outcome {
			before = *f
			if outerReplay {
				nested = e.net.Connect(relay, e.served, []byte("nested"), false, time.Time{})
			} else {
				nested = e.net.Replay(relay, e.served, []byte("nested"), Epoch)
			}
			after = *f
			return Outcome{Reaction: reaction.Data, ResponseLen: len(f.FirstPayload)}
		}))

		var o Outcome
		if outerReplay {
			o = e.net.Replay(client, relay, []byte("outer"), Epoch)
		} else {
			o = e.net.Connect(client, relay, []byte("outer"), false, time.Time{})
		}
		sameFlows(t, "outer flow across the nested call", []Flow{before}, []Flow{after})
		if after.ID != 1 || string(after.FirstPayload) != "outer" || after.Replayed != outerReplay {
			t.Errorf("outer flow = %+v, want ID 1 carrying \"outer\", Replayed %v", after, outerReplay)
		}
		if want := (Outcome{Reaction: reaction.Data, ResponseLen: len("nested")}); nested != want {
			t.Errorf("nested outcome = %+v, want %+v", nested, want)
		}
		if want := (Outcome{Reaction: reaction.Data, ResponseLen: len("outer")}); o != want {
			t.Errorf("outer outcome = %+v, want %+v", o, want)
		}
		if len(e.box.flows) != 2 || e.box.flows[0].ID != 1 || e.box.flows[1].ID != 2 ||
			string(e.box.flows[1].FirstPayload) != "nested" || e.box.flows[1].Replayed == outerReplay {
			t.Errorf("middlebox saw %+v, want the outer flow then the nested one, marked %v", e.box.flows, !outerReplay)
		}
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
