package netsim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"strings"
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

// TestImpairFIFONoReorder is the FIFO property: arrivals on one link
// are non-decreasing no matter how jitter jiggles individual delays.
func TestImpairFIFONoReorder(t *testing.T) {
	sim := NewSim(WithSeed(42))
	net := NewNetwork(sim, WithDefaultLink(LinkProfile{
		LatencyBase: 10 * time.Millisecond,
		Jitter:      200 * time.Millisecond,
	}))
	lk := net.linkFor(impairClient, impairServer)
	var prev time.Time
	at := sim.Now()
	for i := 0; i < 5000; i++ {
		arr := net.deliver(lk, at)
		if arr.Before(prev) {
			t.Fatalf("delivery %d arrived at %v, before previous %v (FIFO violated)", i, arr, prev)
		}
		prev = arr
		at = at.Add(time.Duration(i%7) * time.Millisecond)
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

// runImpairedWorkload drives a fixed workload over a lossy, jittery
// link and returns a transcript of every outcome.
func runImpairedWorkload(seed int64, addHostsReversed bool) string {
	sim := NewSim(WithSeed(seed))
	net := NewNetwork(sim, WithDefaultLink(LinkProfile{
		LatencyBase: 20 * time.Millisecond,
		Jitter:      80 * time.Millisecond,
		Loss:        0.05,
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

// TestLinkProfileValidate: a profile outside its domain is rejected
// with an error naming the field, not reinterpreted; zero retry values
// still select the defaults, and a nil profile is ideal links.
func TestLinkProfileValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    *LinkProfile
		want string // "" = valid
	}{
		{"nil", nil, ""},
		{"zero", &LinkProfile{}, ""},
		{"lossless and total loss", &LinkProfile{LatencyBase: time.Millisecond, Loss: 1}, ""},
		{"NaN Loss", &LinkProfile{Loss: math.NaN()}, "Loss"},
		{"Loss above 1", &LinkProfile{Loss: 1.5}, "Loss"},
		{"negative Loss", &LinkProfile{Loss: -0.1}, "Loss"},
		{"negative LatencyBase", &LinkProfile{LatencyBase: -time.Hour}, "LatencyBase"},
		{"negative Jitter", &LinkProfile{Jitter: -time.Millisecond}, "Jitter"},
		{"negative Retry.Attempts", &LinkProfile{Loss: 0.1, Retry: RetryPolicy{Attempts: -4}}, "Retry.Attempts"},
		{"negative Retry.Timeout", &LinkProfile{Loss: 0.1, Retry: RetryPolicy{Timeout: -time.Second}}, "Retry.Timeout"},
	} {
		err := tc.p.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: Validate() = %v, want nil", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: Validate() = %v, want an error naming %s", tc.name, err, tc.want)
		}
	}
}

// transcriptBox hashes the arrival time of every payload it observes.
type transcriptBox struct{ h io.Writer }

func (b *transcriptBox) OnFlow(f *Flow) { fmt.Fprintf(b.h, "flow %d %d\n", f.ID, f.Start.UnixNano()) }

// TestGoldenImpairedTranscript pins the values of every per-link draw
// site — losses and jitter — and the retry loop and FIFO floor they
// feed, as the SHA-256 of one line per flow. Odd flows come from a
// client IP the network has not seen, so both of their links are fresh
// and draw only a handful of values; even flows share one client,
// whose two links run for thousands of draws.
func TestGoldenImpairedTranscript(t *testing.T) {
	sim := NewSim(WithSeed(7))
	net := NewNetwork(sim, WithDefaultLink(LinkProfile{
		LatencyBase: 20 * time.Millisecond,
		Jitter:      80 * time.Millisecond,
		Loss:        0.2,
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
		fmt.Fprintf(h, "%d %v %v %v %d %d\n", i, o.Reaction, o.Dropped, o.Elapsed,
			net.mImpRetransmits.Value(), net.mImpDroppedFlows.Value())
		sim.RunUntil(sim.Now().Add(time.Duration(i%5) * time.Millisecond))
	}
	for _, c := range []*metrics.Counter{net.mImpRetransmits, net.mImpDroppedFlows, net.mImpDroppedResponses} {
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
	// Written before the impairment layer lost its Gilbert–Elliott,
	// duplication, reordering, bandwidth and outage models; a change
	// means some link draw moved.
	const want = "d5da0b6e0781b3827a572682b9a263e2218902fd9dabb851c1466219567cafe4"
	if got != want {
		t.Fatalf("impaired transcript SHA-256 = %s, want %s", got, want)
	}
}
