// Package netsim is a deterministic discrete-event network simulator at
// flow granularity. It provides the substrate on which the paper's
// measurement experiments are re-run: hosts exchange connections carrying
// a first data payload, middleboxes on the path (the GFW) observe the
// flows, and directional null-routing implements the blocking
// behaviour of §6 (dropping only the server-to-client direction).
//
// A virtual clock makes four-month experiments run in milliseconds and
// bit-for-bit reproducibly: all randomness is seeded and all event
// ordering is total (time, then insertion sequence).
//
// The event loop is the innermost hot path of every experiment, so it is
// allocation-free in steady state: events live by value in a hand-rolled
// binary heap (no per-event boxing), and the AtCall/AfterCall variants
// let schedulers with a long-lived callback avoid per-event closures.
// The heap is the only scheduler: every timer of every experiment,
// population-scale fleet wake-ups included, is one heap event.
// Each Sim owns a metrics.Registry (see internal/metrics) that counts
// scheduled/dispatched events and attempted/blocked flows; all counts
// are driven by virtual time only, so snapshots are deterministic.
package netsim

import (
	"fmt"
	"math"
	"time"

	"sslab/internal/metrics"
	"sslab/internal/reaction"
)

// Epoch is the simulation start time — the first day of the paper's
// Shadowsocks experiment.
var Epoch = time.Date(2019, 9, 29, 0, 0, 0, 0, time.UTC)

// The scheduler's clock is an int64 count of nanoseconds since Epoch:
// heap keys and every comparison on the event path are integer
// operations, and time.Time appears only at the exported boundary (At,
// AtCall, RunUntil, Now and the snapshot view).
var epochSec, epochNsec = Epoch.Unix(), int64(Epoch.Nanosecond())

// nanos converts t to the int64 clock. Times more than ~292 years from
// Epoch saturate, as time.Time.Sub does.
func nanos(t time.Time) int64 {
	sec := t.Unix() - epochSec
	switch {
	case sec >= math.MaxInt64/int64(time.Second):
		return math.MaxInt64
	case sec <= math.MinInt64/int64(time.Second):
		return math.MinInt64
	}
	return sec*1e9 + int64(t.Nanosecond()) - epochNsec
}

// timeOf converts an int64 clock reading back to a time.Time.
func timeOf(n int64) time.Time { return Epoch.Add(time.Duration(n)) }

// maxSpanHours is the longest span, in whole hours, that a
// time.Duration holds: math.MaxInt64 ns is 2,562,047.79 h.
const maxSpanHours = math.MaxInt64 / int64(time.Hour)

// CheckSpan returns an error naming field unless v, a configured span
// counted in units of unit (time.Hour or time.Minute), is non-negative
// and at most 2,562,047 h. Configurations turn their spans into
// time.Duration values, which wrap silently past that: a wrapped block
// TTL lifts each block the moment it is made, and a wrapped interval
// re-arms its timer at the current instant for ever.
func CheckSpan(field string, v float64, unit time.Duration) error {
	if !(v >= 0 && v <= float64(maxSpanHours*int64(time.Hour/unit))) {
		return fmt.Errorf("%s %v is negative, NaN or longer than the %d h a time.Duration holds", field, v, maxSpanHours)
	}
	return nil
}

// event is one scheduled callback, call(arg). At and After store their
// closure as arg behind the callFunc trampoline, so there is one event
// form and one dispatch path.
type event struct {
	at   int64 // nanoseconds since Epoch
	seq  uint64
	call func(any)
	arg  any
}

// callFunc is the trampoline for closures scheduled with At and After.
// A func value is pointer-shaped, so storing it in arg does not
// allocate.
func callFunc(fn any) { fn.(func())() }

// before is the total event order: time, then insertion sequence.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Sim is the discrete-event scheduler with a virtual clock.
type Sim struct {
	now  int64     // nanoseconds since Epoch
	nowT time.Time // now as a time.Time, refreshed only when the clock moves
	pq   []event   // binary min-heap by (at, seq), events by value
	seq  uint64

	// seed is the root of the simulator's own randomness (link
	// impairment streams); component models (GFW, traffic generators)
	// carry their own seeds. Set with WithSeed.
	seed int64

	// Metrics is the sim-owned registry; Network and middleboxes attach
	// their instruments to it so one snapshot covers the whole substrate.
	Metrics *metrics.Registry
	// metricsSet records that WithMetrics was applied (possibly with
	// nil, which deliberately disables instrumentation).
	metricsSet bool

	scheduled  *metrics.Counter
	dispatched *metrics.Counter
	heapPeak   *metrics.Gauge
}

// Option configures a Sim at construction (see NewSim).
type Option func(*Sim)

// WithSeed sets the simulator's root seed; per-link impairment streams
// are forked from it via seedfork, so equal seeds give bit-identical
// impairment decisions. The default seed is 0.
func WithSeed(seed int64) Option {
	return func(s *Sim) { s.seed = seed }
}

// WithMetrics substitutes the simulator's metrics registry. Passing nil
// is valid and turns every instrument into a no-op (internal/metrics is
// nil-safe), which removes even the counter increments from the hot
// path. The default is a fresh registry.
func WithMetrics(m *metrics.Registry) Option {
	return func(s *Sim) { s.Metrics, s.metricsSet = m, true }
}

// NewSim returns a simulator starting at Epoch. With no options it is
// identical to the historical zero-argument constructor.
func NewSim(opts ...Option) *Sim {
	s := &Sim{nowT: Epoch}
	for _, o := range opts {
		o(s)
	}
	if s.Metrics == nil && !s.metricsSet {
		s.Metrics = metrics.New()
	}
	s.scheduled = s.Metrics.Counter("sim.events_scheduled")
	s.dispatched = s.Metrics.Counter("sim.events_dispatched")
	s.heapPeak = s.Metrics.Gauge("sim.event_heap_peak")
	return s
}

// Seed returns the simulator's root seed (see WithSeed).
func (s *Sim) Seed() int64 { return s.seed }

// Now returns the current virtual time.
func (s *Sim) Now() time.Time { return s.nowT }

// later returns the clock reading d from now, saturating at the end of
// the int64 clock's range.
func (s *Sim) later(d time.Duration) int64 {
	if d > 0 && s.now > math.MaxInt64-int64(d) {
		return math.MaxInt64
	}
	return s.now + int64(d)
}

// At schedules fn at absolute time t (clamped to now if in the past).
func (s *Sim) At(t time.Time, fn func()) {
	s.push(event{at: nanos(t), call: callFunc, arg: fn})
}

// After schedules fn d from now.
func (s *Sim) After(d time.Duration, fn func()) {
	s.push(event{at: s.later(d), call: callFunc, arg: fn})
}

// AtCall schedules call(arg) at absolute time t (clamped to now if in
// the past). It is the closure-free form of At: a scheduler that reuses
// one long-lived call function and threads per-event state through arg
// (a pointer, to stay boxing-free) schedules without allocating.
func (s *Sim) AtCall(t time.Time, call func(any), arg any) {
	s.push(event{at: nanos(t), call: call, arg: arg})
}

// AfterCall schedules call(arg) d from now without allocating a closure.
func (s *Sim) AfterCall(d time.Duration, call func(any), arg any) {
	s.push(event{at: s.later(d), call: call, arg: arg})
}

// push inserts e into the heap with the next sequence number.
//
//sslab:hotpath
func (s *Sim) push(e event) {
	if e.at < s.now {
		e.at = s.now
	}
	s.seq++
	e.seq = s.seq
	s.pq = append(s.pq, e) //sslab:allow-hotpath amortized heap growth; the backing array is retained across pops and stops growing at steady state
	s.siftUp(len(s.pq) - 1)
	s.scheduled.Inc()
	s.heapPeak.Max(int64(len(s.pq)))
}

// pop removes and returns the earliest event. len(s.pq) must be > 0.
//
//sslab:hotpath
func (s *Sim) pop() event {
	top := s.pq[0]
	n := len(s.pq) - 1
	s.pq[0] = s.pq[n]
	s.pq[n] = event{} // drop call/arg references so they can be collected
	s.pq = s.pq[:n]
	if n > 0 {
		s.siftDown(0)
	}
	return top
}

func (s *Sim) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.pq[i].before(&s.pq[parent]) {
			return
		}
		s.pq[i], s.pq[parent] = s.pq[parent], s.pq[i]
		i = parent
	}
}

func (s *Sim) siftDown(i int) {
	n := len(s.pq)
	for {
		least := i
		if l := 2*i + 1; l < n && s.pq[l].before(&s.pq[least]) {
			least = l
		}
		if r := 2*i + 2; r < n && s.pq[r].before(&s.pq[least]) {
			least = r
		}
		if least == i {
			return
		}
		s.pq[i], s.pq[least] = s.pq[least], s.pq[i]
		i = least
	}
}

// dispatch advances the clock to e.at and runs its callback.
//
//sslab:hotpath
func (s *Sim) dispatch(e *event) {
	if e.at != s.now {
		s.now = e.at
		s.nowT = timeOf(e.at)
	}
	s.dispatched.Inc()
	e.call(e.arg)
}

// Run processes events until the queue is empty.
func (s *Sim) Run() {
	for len(s.pq) > 0 {
		e := s.pop()
		s.dispatch(&e)
	}
}

// RunUntil processes events with at <= t, then advances the clock to t.
func (s *Sim) RunUntil(t time.Time) {
	n := nanos(t)
	for len(s.pq) > 0 && s.pq[0].at <= n {
		e := s.pop()
		s.dispatch(&e)
	}
	if s.now < n {
		s.now, s.nowT = n, t
	}
}

// Pending returns the number of queued events.
func (s *Sim) Pending() int { return len(s.pq) }

// Endpoint is an IP:port pair in the simulated network.
type Endpoint struct {
	IP   string
	Port int
}

func (e Endpoint) String() string { return fmt.Sprintf("%s:%d", e.IP, e.Port) }

// Less orders endpoints by IP, then port: the order in which snapshots
// write their endpoint-keyed tables.
func (e Endpoint) Less(o Endpoint) bool {
	if e.IP != o.IP {
		return e.IP < o.IP
	}
	return e.Port < o.Port
}

// Flow is one TCP connection, reduced to what the GFW's detector sees:
// endpoints, direction, and the first data-carrying packet from the client.
type Flow struct {
	ID     uint64
	Client Endpoint
	Server Endpoint
	// FirstPayload is the client's first data packet (after TCP handshake).
	FirstPayload []byte
	// Start is when the flow's first payload crossed the wire.
	Start time.Time
	// Probe marks flows originated by the censor's probers (middleboxes
	// do not re-analyze their own probes).
	Probe bool
	// GeneratedAt is when the payload content was created (for replays of
	// recorded content this is the recording time, used by timestamp-
	// based replay defenses).
	GeneratedAt time.Time
	// Replayed marks a probe whose FirstPayload is a byte-identical copy
	// of a client flight this server already received, as the censor
	// that recorded the flight knows. Only Network.Replay sets it.
	Replayed bool
}

// Outcome is the server's observable response to a flow.
type Outcome struct {
	Reaction reaction.Reaction
	// ResponseLen is the number of bytes the server sent back (Reaction ==
	// Data).
	ResponseLen int
	// Blocked means the flow never completed because a null-routing rule
	// dropped the server-to-client direction.
	Blocked bool
	// Dropped means an impaired link lost the flow before the first
	// payload was delivered (connect failure, not a server reaction);
	// probers may retry such flows. Always false on ideal links.
	Dropped bool `json:"Dropped,omitempty"`
	// Elapsed is the client's wait from initiating the flow to observing
	// the outcome, under the links' impairment profiles. Zero on ideal
	// links (delivery is instant).
	Elapsed time.Duration `json:"Elapsed,omitempty"`
}

// Host handles inbound flows.
type Host interface {
	HandleFlow(f *Flow) Outcome
}

// HostFunc adapts a function to the Host interface.
type HostFunc func(f *Flow) Outcome

// HandleFlow implements Host.
func (fn HostFunc) HandleFlow(f *Flow) Outcome { return fn(f) }

// Middlebox observes flows crossing the border — the GFW's position.
type Middlebox interface {
	// OnFlow sees every border-crossing flow with its first payload.
	OnFlow(f *Flow)
}

// FlowSpec describes one flow to ConnectBatch — the same parameters as
// a Connect call, as data.
type FlowSpec struct {
	Client       Endpoint
	Server       Endpoint
	FirstPayload []byte
	Probe        bool
	// GeneratedAt records when the payload content was originally
	// created; the zero time means "now" (fresh content).
	GeneratedAt time.Time
}

// Network ties hosts, middleboxes and blocking rules together.
type Network struct {
	Sim *Sim

	hosts map[Endpoint]Host
	boxes []Middlebox

	// flowBuf is the Flow arena behind Connect, one slot per nesting
	// depth (depth counts the Connect calls in progress), so a Host or
	// Middlebox that calls Connect from its callback gets a Flow of its
	// own. Slots are allocated once and reused, so the flow path
	// allocates nothing in steady state.
	flowBuf []*Flow
	depth   int

	// Null routing drops the server->client direction, per IP (all
	// ports) or per endpoint (§6: "block by port, or by IP address?").
	// The stored value is the generation of the active rule: Unblock*If
	// only clears a rule installed by the matching Block* call, so a
	// stale scheduled unblock cannot clear a newer block (two servers
	// sharing an IP, or a re-block racing a pending unblock).
	blockedIP   map[string]uint64
	blockedPort map[Endpoint]uint64
	blockGen    uint64

	// Flows counts all attempted flows, blocked ones included: a flow's
	// ID is the count including it.
	Flows int

	// Link impairment (see impair.go): the normalized profile every
	// directed link shares, nil for ideal links, and the lazily created
	// link states.
	link  *LinkProfile
	links map[linkKey]*linkState

	flowsTotal   *metrics.Counter
	flowsBlocked *metrics.Counter
	probeFlows   *metrics.Counter

	mImpDroppedFlows     *metrics.Counter
	mImpDroppedResponses *metrics.Counter
	mImpRetransmits      *metrics.Counter
}

// NetworkOption configures a Network at construction (see NewNetwork).
type NetworkOption func(*Network)

// WithDefaultLink applies profile to every directed link. A profile
// with no latency, jitter or loss leaves links ideal; zero retry values
// select 3 attempts and a 1 s initial timeout.
func WithDefaultLink(profile LinkProfile) NetworkOption {
	return func(n *Network) {
		n.link, n.links = nil, nil
		if profile.LatencyBase == 0 && profile.Jitter == 0 && profile.Loss == 0 {
			return
		}
		p := profile
		if p.Retry.Attempts <= 0 {
			p.Retry.Attempts = 3
		}
		if p.Retry.Timeout <= 0 {
			p.Retry.Timeout = time.Second
		}
		n.link, n.links = &p, map[linkKey]*linkState{}
	}
}

// NewNetwork creates an empty network on sim. With no options every
// link is ideal and the flow path is identical to the historical
// constructor's.
func NewNetwork(sim *Sim, opts ...NetworkOption) *Network {
	n := &Network{
		Sim:          sim,
		hosts:        map[Endpoint]Host{},
		blockedIP:    map[string]uint64{},
		blockedPort:  map[Endpoint]uint64{},
		flowsTotal:   sim.Metrics.Counter("net.flows_total"),
		flowsBlocked: sim.Metrics.Counter("net.flows_blocked"),
		probeFlows:   sim.Metrics.Counter("net.flows_probe"),

		mImpDroppedFlows:     sim.Metrics.Counter("net.impair_dropped_flows"),
		mImpDroppedResponses: sim.Metrics.Counter("net.impair_dropped_responses"),
		mImpRetransmits:      sim.Metrics.Counter("net.impair_retransmits"),
	}
	for _, o := range opts {
		o(n)
	}
	return n
}

// AddHost binds a host to an endpoint.
func (n *Network) AddHost(ep Endpoint, h Host) { n.hosts[ep] = h }

// AddMiddlebox appends a middlebox to the border path.
func (n *Network) AddMiddlebox(m Middlebox) { n.boxes = append(n.boxes, m) }

// BlockIP null-routes the server->client direction for every port of ip
// and returns the rule's generation for UnblockIPIf.
func (n *Network) BlockIP(ip string) uint64 {
	n.blockGen++
	n.blockedIP[ip] = n.blockGen
	return n.blockGen
}

// BlockPort null-routes the server->client direction for one endpoint
// and returns the rule's generation for UnblockPortIf.
func (n *Network) BlockPort(ep Endpoint) uint64 {
	n.blockGen++
	n.blockedPort[ep] = n.blockGen
	return n.blockGen
}

// UnblockIPIf removes the IP rule only if it is still the one installed
// by the BlockIP call that returned gen. It reports whether a rule was
// removed.
func (n *Network) UnblockIPIf(ip string, gen uint64) bool {
	if n.blockedIP[ip] != gen {
		return false
	}
	delete(n.blockedIP, ip)
	return true
}

// UnblockPortIf removes the endpoint rule only if it is still the one
// installed by the BlockPort call that returned gen. It reports whether
// a rule was removed.
func (n *Network) UnblockPortIf(ep Endpoint, gen uint64) bool {
	if n.blockedPort[ep] != gen {
		return false
	}
	delete(n.blockedPort, ep)
	return true
}

// IsBlocked reports whether the endpoint's return direction is dropped.
func (n *Network) IsBlocked(ep Endpoint) bool {
	return n.blockedIP[ep.IP] != 0 || n.blockedPort[ep] != 0
}

// Connect performs one flow: client connects to server and sends
// firstPayload as its first data packet. Middleboxes observe the flow and
// its outcome. The call is synchronous in virtual time.
//
// generatedAt records when the payload content was originally created;
// pass the zero time for "now" (fresh content).
//
// The *Flow handed to middleboxes and the host lives in a network-owned
// arena and is valid only until Connect returns: anything retained must
// be copied (the censor copies each payload it records). A Host or
// Middlebox may call Connect from its callback; the nested flow gets its
// own arena slot, and the caller's Flow is unchanged when the nested call
// returns.
func (n *Network) Connect(client, server Endpoint, firstPayload []byte, probe bool, generatedAt time.Time) Outcome {
	return n.open(client, server, firstPayload, probe, false, generatedAt)
}

// Replay is Connect for a probe whose payload is a byte-identical copy of
// a client flight to server recorded at recordedAt; it marks the flow
// Replayed.
func (n *Network) Replay(client, server Endpoint, payload []byte, recordedAt time.Time) Outcome {
	return n.open(client, server, payload, true, true, recordedAt)
}

// open is the body of Connect and Replay. It assigns the whole arena
// slot, so a reused slot never keeps an earlier flow's mark.
//
//sslab:hotpath
func (n *Network) open(client, server Endpoint, firstPayload []byte, probe, replayed bool, generatedAt time.Time) Outcome {
	n.Flows++
	n.flowsTotal.Inc()
	if probe {
		n.probeFlows.Inc()
	}
	now := n.Sim.Now()
	if generatedAt.IsZero() {
		generatedAt = now
	}
	if n.depth == len(n.flowBuf) {
		n.flowBuf = append(n.flowBuf, new(Flow))
	}
	f := n.flowBuf[n.depth]
	*f = Flow{
		ID:           uint64(n.Flows),
		Client:       client,
		Server:       server,
		FirstPayload: firstPayload,
		Start:        now,
		Probe:        probe,
		GeneratedAt:  generatedAt,
		Replayed:     replayed,
	}
	n.depth++
	o := n.connect(f)
	n.depth--
	return o
}

// connect delivers one flow: impaired links first (impair.go), then the
// null-route diversion, then middleboxes → host. With no link profile
// configured — or a zero one — the flow takes the ideal path with no
// RNG draws.
//
//sslab:hotpath
func (n *Network) connect(f *Flow) Outcome {
	if n.link != nil {
		return n.connectImpaired(f, n.linkFor(f.Client, f.Server), n.linkFor(f.Server, f.Client))
	}
	if n.IsBlocked(f.Server) {
		return n.silence(f)
	}
	return n.arrive(f)
}

// arrive hands a delivered payload to the middleboxes, then to the
// flow's host. With no host the network refuses the connection, which
// the censor observes too.
//
//sslab:hotpath
func (n *Network) arrive(f *Flow) Outcome {
	for _, b := range n.boxes {
		b.OnFlow(f)
	}
	if h, ok := n.hosts[f.Server]; ok {
		return h.HandleFlow(f)
	}
	return Outcome{Reaction: reaction.RST}
}

// silence completes a flow to a null-routed server. Null routing drops
// only the server->client direction (§6): the client's SYN still
// reaches the server, which may even accept and respond, but nothing
// comes back. From the client's (and a probing censor's) point of view
// the connection never completes, and because the handshake fails the
// client never sends its payload — so the middleboxes see nothing and
// the host sees the flow with no data, and so no replay.
func (n *Network) silence(f *Flow) Outcome {
	n.flowsBlocked.Inc()
	if h, ok := n.hosts[f.Server]; ok {
		f.FirstPayload, f.Replayed = nil, false
		h.HandleFlow(f)
	}
	return Outcome{Blocked: true}
}

// ConnectBatch performs the specs' flows in order, one Connect call
// each, and appends their outcomes to outBuf (pass outBuf[:0] to reuse
// a caller-owned slice), returning the extended slice. Outcome i
// corresponds to specs[i].
//
//sslab:hotpath
func (n *Network) ConnectBatch(specs []FlowSpec, outBuf []Outcome) []Outcome {
	for i := range specs {
		sp := &specs[i]
		outBuf = append(outBuf, n.Connect(sp.Client, sp.Server, sp.FirstPayload, sp.Probe, sp.GeneratedAt))
	}
	return outBuf
}
