package netsim

import (
	"hash/fnv"
	"time"

	"sslab/internal/reaction"
	"sslab/internal/seedfork"
)

// LinkProfile describes the impairments of one directed link. The zero
// value is the idealized link the simulator always had: instant,
// lossless and in-order — a Network whose every profile is zero takes
// exactly the pre-impairment code path, so reports stay byte-identical.
//
// All randomness is drawn from a per-link PRNG forked off the Sim seed
// by the link's endpoint IPs (see linkFor), so two runs with the same
// seed produce the same drops, delays and reorders regardless of host
// registration order or sweep worker count.
type LinkProfile struct {
	// LatencyBase is the one-way propagation delay.
	LatencyBase time.Duration
	// Jitter adds a uniform [0, Jitter) delay to each delivery.
	Jitter time.Duration
	// Loss is the i.i.d. per-transmission loss probability. Ignored when
	// GE configures a Gilbert–Elliott chain.
	Loss float64
	// GE, when its transition probabilities are set, replaces Loss with
	// a two-state Gilbert–Elliott burst-loss chain.
	GE GEParams
	// Duplicate is the probability the first payload is delivered twice
	// (middleboxes observe the flow twice; hosts, like TCP receivers
	// deduplicating by sequence number, still see it once).
	Duplicate float64
	// ReorderProb is the probability a delivered packet is held back by
	// up to ReorderWindow, letting later packets on the link overtake it.
	// When zero, per-link delivery is strictly FIFO.
	ReorderProb   float64
	ReorderWindow time.Duration
	// BandwidthBPS caps the link's throughput in bits per second;
	// packets serialize onto the link in send order. Zero = unlimited.
	BandwidthBPS float64
	// Outages are scheduled windows (offsets from Epoch) during which
	// every transmission on the link is lost — path flaps and, when
	// applied to specific links, network partitions.
	Outages []Outage
	// Retry is the sender's transport-level retransmission policy.
	Retry RetryPolicy
}

// GEParams parameterizes a Gilbert–Elliott burst-loss chain: the chain
// steps once per transmission, and the loss probability is LossGood or
// LossBad depending on the current state.
type GEParams struct {
	PGoodToBad float64
	PBadToGood float64
	LossGood   float64
	LossBad    float64
}

func (g GEParams) active() bool { return g.PGoodToBad > 0 || g.PBadToGood > 0 }

// Outage is one scheduled link-down window, as offsets from Epoch.
// Start is inclusive, End exclusive.
type Outage struct {
	Start time.Duration
	End   time.Duration
}

// RetryPolicy is the transport-level retransmission behaviour of a
// link's sender: up to Attempts transmissions, with a timeout that
// starts at Timeout and doubles per retry (TCP-style exponential
// backoff). Zero values select Attempts=3, Timeout=1s.
type RetryPolicy struct {
	Attempts int
	Timeout  time.Duration
}

// IsZero reports whether the profile configures no impairment at all.
// Retry alone is not an impairment: it only matters once something can
// be lost.
func (p *LinkProfile) IsZero() bool {
	return p == nil ||
		(p.LatencyBase == 0 && p.Jitter == 0 && p.Loss == 0 && !p.GE.active() &&
			p.Duplicate == 0 && p.ReorderProb == 0 && p.BandwidthBPS == 0 &&
			len(p.Outages) == 0)
}

// normalized returns a copy with retry defaults applied and
// probabilities clamped to [0, 1].
func (p LinkProfile) normalized() LinkProfile {
	if p.Retry.Attempts <= 0 {
		p.Retry.Attempts = 3
	}
	if p.Retry.Timeout <= 0 {
		p.Retry.Timeout = time.Second
	}
	clamp01 := func(v *float64) {
		if *v < 0 {
			*v = 0
		}
		if *v > 1 {
			*v = 1
		}
	}
	clamp01(&p.Loss)
	clamp01(&p.Duplicate)
	clamp01(&p.ReorderProb)
	clamp01(&p.GE.PGoodToBad)
	clamp01(&p.GE.PBadToGood)
	clamp01(&p.GE.LossGood)
	clamp01(&p.GE.LossBad)
	return p
}

// linkKey identifies one directed link by its endpoint IPs. Impairment
// is a property of the path, so all ports between two hosts share one
// link state (and one bandwidth queue).
type linkKey struct {
	src, dst string
}

// linkState is the mutable per-directed-link impairment state. It is
// created lazily on first use; its PRNG is forked from the Sim seed and
// the two IPs, so stream identity depends only on the link, never on
// creation order. The stream is held by value: most links draw a few
// values, which a lazily seeded Source computes without a register.
type linkState struct {
	prof LinkProfile
	rng  seedfork.Source

	geBad bool
	// fifoFloor is the earliest arrival the next in-order delivery may
	// have; it enforces per-link FIFO when reordering is disabled.
	fifoFloor time.Time
	// maxArrival tracks the latest arrival handed out, for counting
	// actual inversions (a delivery before maxArrival overtook another).
	maxArrival time.Time
	// busyUntil serializes packets onto a bandwidth-capped link.
	busyUntil time.Time
}

func hashIP(ip string) int64 {
	h := fnv.New64a()
	h.Write([]byte(ip))
	return int64(h.Sum64())
}

// impaired reports whether any link profile is configured; false keeps
// Connect on the exact pre-impairment code path.
func (n *Network) impaired() bool {
	return n.defaultLink != nil || len(n.linkProfiles) > 0
}

// linkFor returns the impairment state of the src→dst link, or nil for
// an ideal link. States are cached (including the nil result) so the
// per-flow cost is one map lookup.
func (n *Network) linkFor(src, dst Endpoint) *linkState {
	k := linkKey{src: src.IP, dst: dst.IP}
	if st, ok := n.links[k]; ok {
		return st
	}
	p := n.defaultLink
	if lp, ok := n.linkProfiles[k]; ok {
		p = lp
	}
	var st *linkState
	if !p.IsZero() {
		seed := seedfork.Fork(n.Sim.seed, "netsim.link", hashIP(src.IP), hashIP(dst.IP))
		st = &linkState{
			prof: p.normalized(),
			rng:  seedfork.NewSource(seed),
		}
	}
	if n.links == nil {
		n.links = map[linkKey]*linkState{}
	}
	n.links[k] = st
	return st
}

// lost draws whether one transmission at time at is lost: scheduled
// outages drop everything; otherwise the Gilbert–Elliott chain (stepped
// once per transmission) or the i.i.d. rate decides.
func (lk *linkState) lost(at time.Time) bool {
	p := &lk.prof
	for i := range p.Outages {
		o := &p.Outages[i]
		if !at.Before(Epoch.Add(o.Start)) && at.Before(Epoch.Add(o.End)) {
			return true
		}
	}
	if p.GE.active() {
		if lk.geBad {
			if lk.rng.Float64() < p.GE.PBadToGood {
				lk.geBad = false
			}
		} else if lk.rng.Float64() < p.GE.PGoodToBad {
			lk.geBad = true
		}
		rate := p.GE.LossGood
		if lk.geBad {
			rate = p.GE.LossBad
		}
		return rate > 0 && lk.rng.Float64() < rate
	}
	return p.Loss > 0 && lk.rng.Float64() < p.Loss
}

// transmit models one packet of size bytes entering the link at sendAt,
// with the link's transport-level retransmission policy. It returns the
// delivery time, or (giveUpTime, false) when every attempt was lost —
// giveUpTime is when the sender's final retransmission timeout fires.
//
// A nil link is ideal: instant, lossless delivery.
func (n *Network) transmit(lk *linkState, sendAt time.Time, size int) (time.Time, bool) {
	if lk == nil {
		return sendAt, true
	}
	p := &lk.prof
	rto := p.Retry.Timeout
	for attempt := 1; ; attempt++ {
		if !lk.lost(sendAt) {
			return n.deliver(lk, sendAt, size), true
		}
		if attempt >= p.Retry.Attempts {
			return sendAt.Add(rto), false
		}
		n.mImpRetransmits.Inc()
		sendAt = sendAt.Add(rto)
		rto *= 2
	}
}

// deliver computes the arrival time of a successfully transmitted
// packet: serialization onto a bandwidth-capped link, propagation
// delay plus jitter, then the FIFO/reordering discipline.
func (n *Network) deliver(lk *linkState, sendAt time.Time, size int) time.Time {
	p := &lk.prof
	d := p.LatencyBase
	if p.Jitter > 0 {
		d += time.Duration(lk.rng.Int63n(int64(p.Jitter)))
	}
	if p.BandwidthBPS > 0 {
		txStart := sendAt
		if lk.busyUntil.After(txStart) {
			txStart = lk.busyUntil
		}
		tx := time.Duration(float64(size*8) / p.BandwidthBPS * float64(time.Second))
		lk.busyUntil = txStart.Add(tx)
		d += lk.busyUntil.Sub(sendAt)
	}
	arr := sendAt.Add(d)
	if p.ReorderProb > 0 && p.ReorderWindow > 0 && lk.rng.Float64() < p.ReorderProb {
		// Held back: the FIFO floor is not raised, so later packets on
		// this link may overtake it.
		arr = arr.Add(time.Duration(lk.rng.Int63n(int64(p.ReorderWindow))))
	} else {
		if arr.Before(lk.fifoFloor) {
			arr = lk.fifoFloor
		}
		lk.fifoFloor = arr
	}
	if arr.Before(lk.maxArrival) {
		n.mImpReorders.Inc()
	} else {
		lk.maxArrival = arr
	}
	return arr
}

// ipHeaderBytes approximates the TCP/IP overhead of a handshake or
// control segment, used to size SYN/ACK/FIN transmissions on
// bandwidth-capped links.
const ipHeaderBytes = 40

// connectImpaired resolves one flow over impaired links. Like the ideal
// path it is synchronous in virtual time: every transmission's arrival
// time is computed immediately and recorded in the flow's timestamps
// (Flow.Start is when the first payload arrived, Outcome.Elapsed is the
// client's total wait) rather than by suspending the flow on the event
// queue — preserving the Connect contract middleboxes and hosts rely
// on. fwd carries client→server segments, rev the return direction;
// either may be nil (ideal).
func (n *Network) connectImpaired(f *Flow, fwd, rev *linkState) Outcome {
	start := f.Start

	// SYN: client → server. A flow whose handshake dies is Dropped —
	// nothing ever crossed the border, so middleboxes see nothing and
	// the client (or prober) observes a failed connect.
	synAt, ok := n.transmit(fwd, start, ipHeaderBytes)
	if !ok {
		n.mImpDroppedFlows.Inc()
		return Outcome{Reaction: reaction.Timeout, Dropped: true, Elapsed: synAt.Sub(start)}
	}

	// Null routing (§6) still drops only the server→client direction:
	// the SYN arrives, nothing returns.
	if n.IsBlocked(f.Server) {
		return n.silence(f)
	}

	// SYN-ACK: server → client.
	ackAt, ok := n.transmit(rev, synAt, ipHeaderBytes)
	if !ok {
		n.mImpDroppedFlows.Inc()
		return Outcome{Reaction: reaction.Timeout, Dropped: true, Elapsed: ackAt.Sub(start)}
	}

	// First payload: client → server.
	payAt, ok := n.transmit(fwd, ackAt, ipHeaderBytes+len(f.FirstPayload))
	if !ok {
		n.mImpDroppedFlows.Inc()
		return Outcome{Reaction: reaction.Timeout, Dropped: true, Elapsed: payAt.Sub(start)}
	}
	f.Start = payAt

	for _, b := range n.boxes {
		b.OnFlow(f)
	}
	// Duplication re-delivers the payload segment past the middleboxes;
	// the host, deduplicating by TCP sequence number, handles it once.
	if fwd != nil && fwd.prof.Duplicate > 0 && fwd.rng.Float64() < fwd.prof.Duplicate {
		n.mImpDuplicates.Inc()
		for _, b := range n.boxes {
			b.OnFlow(f)
		}
	}

	h, hok := n.hosts[f.Server]
	var o Outcome
	if !hok {
		o = Outcome{Reaction: reaction.RST}
	} else {
		o = h.HandleFlow(f)
	}

	// Response: server → client. A lost response (after the sender's
	// retries) leaves the client staring at an open-but-silent
	// connection — indistinguishable from a timeout-profile server —
	// and the middleboxes never see the return packets.
	respAt, ok := n.transmit(rev, payAt, ipHeaderBytes+o.ResponseLen)
	if !ok {
		n.mImpDroppedResponses.Inc()
		return Outcome{Reaction: reaction.Timeout, Elapsed: respAt.Sub(start)}
	}
	o.Elapsed = respAt.Sub(start)
	for _, b := range n.boxes {
		b.OnOutcome(f, o)
	}
	return o
}
