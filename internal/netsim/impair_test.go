package netsim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"testing"
	"time"

	"sslab/internal/metrics"
	"sslab/internal/reaction"
)

// impairTestHost reacts with data and counts the flows it handled.
type impairTestHost struct {
	handled int
}

func (h *impairTestHost) HandleFlow(f *Flow) Outcome {
	h.handled++
	return Outcome{Reaction: reaction.Data, ResponseLen: 100}
}

// countingBox counts middlebox observations.
type countingBox struct {
	flows int
}

func (b *countingBox) OnFlow(f *Flow) { b.flows++ }

var (
	impairClient = Endpoint{IP: "150.109.1.1", Port: 40000}
	impairServer = Endpoint{IP: "178.62.1.1", Port: 8388}
)

// TestImpairFIFONoReorder is the FIFO property: with reordering disabled,
// arrivals on one link are non-decreasing no matter how jitter and
// bandwidth queueing jiggle individual delays.
func TestImpairFIFONoReorder(t *testing.T) {
	sim := NewSim(WithSeed(42))
	net := NewNetwork(sim, WithDefaultLink(LinkProfile{
		LatencyBase:  10 * time.Millisecond,
		Jitter:       200 * time.Millisecond,
		BandwidthBPS: 1e6,
	}))
	lk := net.linkFor(impairClient, impairServer)
	if lk == nil {
		t.Fatal("expected an impaired link state")
	}
	var prev time.Time
	at := sim.Now()
	for i := 0; i < 5000; i++ {
		arr := net.deliver(lk, at, 100+i%1400)
		if arr.Before(prev) {
			t.Fatalf("delivery %d arrived at %v, before previous %v (FIFO violated)", i, arr, prev)
		}
		prev = arr
		at = at.Add(time.Duration(i%7) * time.Millisecond)
	}
	if got := net.mImpReorders.Value(); got != 0 {
		t.Errorf("reorder counter = %d with reordering disabled, want 0", got)
	}
}

// TestImpairReorderInversions is the complement: with ReorderProb=1 and a
// wide window, held-back packets are overtaken and counted.
func TestImpairReorderInversions(t *testing.T) {
	sim := NewSim(WithSeed(42))
	net := NewNetwork(sim, WithDefaultLink(LinkProfile{
		LatencyBase:   10 * time.Millisecond,
		ReorderProb:   0.5,
		ReorderWindow: time.Second,
	}))
	lk := net.linkFor(impairClient, impairServer)
	at := sim.Now()
	for i := 0; i < 2000; i++ {
		net.deliver(lk, at, 100)
		at = at.Add(time.Millisecond)
	}
	if got := net.mImpReorders.Value(); got == 0 {
		t.Error("no inversions recorded under ReorderProb=0.5 with a 1s window")
	}
}

// TestImpairTotalLoss: loss=1.0 yields zero deliveries — every flow is
// Dropped before its payload crosses the border, so middleboxes and the
// host see nothing.
func TestImpairTotalLoss(t *testing.T) {
	sim := NewSim(WithSeed(1))
	net := NewNetwork(sim, WithDefaultLink(LinkProfile{Loss: 1.0}))
	host := &impairTestHost{}
	box := &countingBox{}
	net.AddHost(impairServer, host)
	net.AddMiddlebox(box)

	const flows = 500
	for i := 0; i < flows; i++ {
		o := net.Connect(impairClient, impairServer, []byte("payload"), false, time.Time{})
		if !o.Dropped {
			t.Fatalf("flow %d not Dropped under loss=1.0: %+v", i, o)
		}
		if o.Reaction != reaction.Timeout {
			t.Fatalf("flow %d reaction = %v, want Timeout", i, o.Reaction)
		}
		if o.Elapsed <= 0 {
			t.Fatalf("flow %d Elapsed = %v, want > 0 (the sender's give-up time)", i, o.Elapsed)
		}
	}
	if host.handled != 0 {
		t.Errorf("host handled %d flows, want 0", host.handled)
	}
	if box.flows != 0 {
		t.Errorf("middlebox saw %d flows, want 0", box.flows)
	}
	if got := net.mImpDroppedFlows.Value(); got != flows {
		t.Errorf("impair_dropped_flows = %d, want %d", got, flows)
	}
	// Each of the flows attempts the SYN 3 times (the default retry
	// policy), so 2 retransmissions are recorded per flow.
	if got := net.mImpRetransmits.Value(); got != 2*flows {
		t.Errorf("impair_retransmits = %d, want %d", got, 2*flows)
	}
}

// runImpairedWorkload drives a fixed workload over a lossy, jittery,
// duplicating link and returns a transcript of every outcome.
func runImpairedWorkload(seed int64, addHostsReversed bool) string {
	sim := NewSim(WithSeed(seed))
	net := NewNetwork(sim, WithDefaultLink(LinkProfile{
		LatencyBase: 20 * time.Millisecond,
		Jitter:      80 * time.Millisecond,
		Loss:        0.05,
		Duplicate:   0.02,
	}))
	serverB := Endpoint{IP: "178.62.1.2", Port: 443}
	hosts := []struct {
		ep Endpoint
		h  Host
	}{
		{impairServer, &impairTestHost{}},
		{serverB, &impairTestHost{}},
	}
	if addHostsReversed {
		hosts[0], hosts[1] = hosts[1], hosts[0]
	}
	for _, hh := range hosts {
		net.AddHost(hh.ep, hh.h)
	}

	transcript := ""
	for i := 0; i < 2000; i++ {
		dst := impairServer
		if i%3 == 0 {
			dst = serverB
		}
		o := net.Connect(impairClient, dst, []byte("payload"), false, time.Time{})
		transcript += fmt.Sprintf("%d %v %v %d %v\n", i, o.Reaction, o.Dropped, o.ResponseLen, o.Elapsed)
	}
	return transcript
}

// TestImpairSameSeedDeterminism: equal seeds give bit-identical outcome
// sequences; per-link streams are keyed by endpoint IPs, so even the
// host registration order is irrelevant. Different seeds differ.
func TestImpairSameSeedDeterminism(t *testing.T) {
	a := runImpairedWorkload(7, false)
	b := runImpairedWorkload(7, false)
	if a != b {
		t.Error("same-seed impaired runs diverged")
	}
	c := runImpairedWorkload(7, true)
	if a != c {
		t.Error("host registration order changed the impairment stream")
	}
	d := runImpairedWorkload(8, false)
	if a == d {
		t.Error("different seeds produced identical impaired runs")
	}
}

// TestImpairZeroProfileIdentical: a Network constructed with an all-zero
// default profile takes the exact historical code path — outcome
// equality with an option-free Network over the same workload.
func TestImpairZeroProfileIdentical(t *testing.T) {
	run := func(opts ...NetworkOption) string {
		sim := NewSim()
		net := NewNetwork(sim, opts...)
		net.AddHost(impairServer, &impairTestHost{})
		transcript := ""
		for i := 0; i < 200; i++ {
			o := net.Connect(impairClient, impairServer, []byte("payload"), false, time.Time{})
			transcript += fmt.Sprintf("%v %d %v %v\n", o.Reaction, o.ResponseLen, o.Dropped, o.Elapsed)
		}
		return transcript
	}
	plain := run()
	zeroed := run(WithDefaultLink(LinkProfile{}))
	if plain != zeroed {
		t.Error("zero-impairment profile changed outcomes versus the historical path")
	}
}

// TestImpairDuplicate: a duplicating link re-delivers the payload past
// the middleboxes, but the host (deduplicating like a TCP receiver)
// still handles the flow once.
func TestImpairDuplicate(t *testing.T) {
	sim := NewSim(WithSeed(3))
	net := NewNetwork(sim, WithDefaultLink(LinkProfile{Duplicate: 1.0}))
	host := &impairTestHost{}
	box := &countingBox{}
	net.AddHost(impairServer, host)
	net.AddMiddlebox(box)

	const flows = 50
	for i := 0; i < flows; i++ {
		net.Connect(impairClient, impairServer, []byte("payload"), false, time.Time{})
	}
	if box.flows != 2*flows {
		t.Errorf("middlebox saw %d flows, want %d (every payload duplicated)", box.flows, 2*flows)
	}
	if host.handled != flows {
		t.Errorf("host handled %d flows, want %d (duplicates deduplicated)", host.handled, flows)
	}
	if got := net.mImpDuplicates.Value(); got != flows {
		t.Errorf("impair_duplicates = %d, want %d", got, flows)
	}
}

// TestImpairOutage: flows inside a scheduled outage window are dropped
// even on an otherwise lossless link; flows outside it go through.
func TestImpairOutage(t *testing.T) {
	sim := NewSim(WithSeed(4))
	net := NewNetwork(sim, WithDefaultLink(LinkProfile{
		Outages: []Outage{{Start: time.Hour, End: 2 * time.Hour}},
		Retry:   RetryPolicy{Attempts: 1, Timeout: time.Second},
	}))
	net.AddHost(impairServer, &impairTestHost{})

	if o := net.Connect(impairClient, impairServer, []byte("p"), false, time.Time{}); o.Dropped {
		t.Error("flow before the outage was dropped")
	}
	sim.RunUntil(Epoch.Add(90 * time.Minute))
	if o := net.Connect(impairClient, impairServer, []byte("p"), false, time.Time{}); !o.Dropped {
		t.Error("flow during the outage was delivered")
	}
	sim.RunUntil(Epoch.Add(3 * time.Hour))
	if o := net.Connect(impairClient, impairServer, []byte("p"), false, time.Time{}); o.Dropped {
		t.Error("flow after the outage was dropped")
	}
}

// TestImpairPerLinkOverride: WithLink overrides the default profile for
// one direction only — partitioning a single pair while the rest of the
// network stays ideal.
func TestImpairPerLinkOverride(t *testing.T) {
	sim := NewSim(WithSeed(5))
	serverB := Endpoint{IP: "178.62.1.2", Port: 443}
	net := NewNetwork(sim, WithLink(impairClient.IP, impairServer.IP, LinkProfile{Loss: 1.0}))
	net.AddHost(impairServer, &impairTestHost{})
	net.AddHost(serverB, &impairTestHost{})

	if o := net.Connect(impairClient, impairServer, []byte("p"), false, time.Time{}); !o.Dropped {
		t.Error("partitioned link delivered a flow")
	}
	if o := net.Connect(impairClient, serverB, []byte("p"), false, time.Time{}); o.Dropped {
		t.Error("unrelated link dropped a flow")
	}
}

// TestImpairLatencyRecorded: Elapsed reflects three one-way trips
// (SYN, SYN-ACK, payload) plus the response leg over the link latency,
// and Flow.Start is shifted to the payload's arrival.
func TestImpairLatencyRecorded(t *testing.T) {
	const lat = 50 * time.Millisecond
	sim := NewSim(WithSeed(6))
	net := NewNetwork(sim, WithDefaultLink(LinkProfile{LatencyBase: lat}))
	var start time.Time
	net.AddHost(impairServer, HostFunc(func(f *Flow) Outcome {
		start = f.Start
		return Outcome{Reaction: reaction.Data, ResponseLen: 64}
	}))
	o := net.Connect(impairClient, impairServer, []byte("p"), false, time.Time{})
	if want := sim.Now().Add(3 * lat); !start.Equal(want) {
		t.Errorf("payload Flow.Start = %v, want %v", start, want)
	}
	if want := 4 * lat; o.Elapsed != want {
		t.Errorf("Elapsed = %v, want %v", o.Elapsed, want)
	}
}

// transcriptBox hashes the arrival time of every payload it observes,
// duplicates included.
type transcriptBox struct{ h io.Writer }

func (b *transcriptBox) OnFlow(f *Flow) { fmt.Fprintf(b.h, "flow %d %d\n", f.ID, f.Start.UnixNano()) }

// TestGoldenImpairedTranscript pins the values of every per-link draw
// site — Gilbert–Elliott steps and losses, jitter, reordering holds,
// duplication — and the bandwidth queue they feed, as the SHA-256 of
// one line per flow. Odd flows come from a client IP the network has
// not seen, so both of their links are fresh and draw only a handful of
// values; even flows share one client, whose two links run for
// thousands of draws.
func TestGoldenImpairedTranscript(t *testing.T) {
	sim := NewSim(WithSeed(7))
	net := NewNetwork(sim, WithDefaultLink(LinkProfile{
		LatencyBase:   20 * time.Millisecond,
		Jitter:        80 * time.Millisecond,
		GE:            GEParams{PGoodToBad: 0.05, PBadToGood: 0.3, LossGood: 0.01, LossBad: 0.6},
		Duplicate:     0.02,
		ReorderProb:   0.05,
		ReorderWindow: 30 * time.Millisecond,
		BandwidthBPS:  1e6,
	}))
	h := sha256.New()
	net.AddMiddlebox(&transcriptBox{h: h})
	net.AddHost(impairServer, &impairTestHost{})
	payload := make([]byte, 1400)
	for i := 0; i < 3000; i++ {
		client := impairClient
		if i%2 == 1 {
			client = Endpoint{IP: fmt.Sprintf("150.110.%d.%d", i/250, i%250+1), Port: 40000}
		}
		o := net.Connect(client, impairServer, payload[:100+i%1300], false, time.Time{})
		fmt.Fprintf(h, "%d %v %v %v %d %d %d %d\n", i, o.Reaction, o.Dropped, o.Elapsed,
			net.mImpRetransmits.Value(), net.mImpReorders.Value(), net.mImpDuplicates.Value(), net.mImpDroppedFlows.Value())
		sim.RunUntil(sim.Now().Add(time.Duration(i%5) * time.Millisecond))
	}
	for _, c := range []*metrics.Counter{net.mImpRetransmits, net.mImpReorders, net.mImpDuplicates, net.mImpDroppedFlows, net.mImpDroppedResponses} {
		if c.Value() == 0 {
			t.Fatalf("a transport counter stayed at 0; the profile no longer reaches every draw site")
		}
	}
	// The shared client's links run past math/rand's 607-word register; a
	// fresh client's stay within the 273 draws a lazy stream computes
	// without one.
	if d := net.links[linkKey{impairClient.IP, impairServer.IP}].rng.State().Draws; d <= 607 {
		t.Errorf("the shared client's link drew %d values, want more than 607", d)
	}
	if d := net.links[linkKey{"150.110.0.2", impairServer.IP}].rng.State().Draws; d >= 273 {
		t.Errorf("a fresh client's link drew %d values, want fewer than 273", d)
	}
	got := hex.EncodeToString(h.Sum(nil))
	// Written with math/rand's own source behind every link; a change
	// means some link draw moved.
	const want = "cffc0063790bb126f83c81f83e5d318844f8621b8ec29a1cc2eb545c173b432e"
	if got != want {
		t.Fatalf("impaired transcript SHA-256 = %s, want %s", got, want)
	}
}
