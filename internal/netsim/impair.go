package netsim

import (
	"fmt"
	"hash/fnv"
	"time"

	"sslab/internal/reaction"
	"sslab/internal/seedfork"
)

// LinkProfile describes the impairments of every directed link of a
// Network. The zero value is the idealized link the simulator always
// had: instant, lossless and in-order — a Network whose profile is zero
// takes exactly the pre-impairment code path, so reports stay
// byte-identical.
//
// All randomness is drawn from a per-link PRNG forked off the Sim seed
// by the link's endpoint IPs (see linkFor), so two runs with the same
// seed produce the same drops and delays regardless of host
// registration order or sweep worker count.
type LinkProfile struct {
	// LatencyBase is the one-way propagation delay.
	LatencyBase time.Duration
	// Jitter adds a uniform [0, Jitter) delay to each delivery.
	Jitter time.Duration
	// Loss is the i.i.d. per-transmission loss probability.
	Loss float64
	// Retry is the sender's transport-level retransmission policy.
	Retry RetryPolicy
}

// RetryPolicy is the transport-level retransmission behaviour of a
// link's sender: up to Attempts transmissions, with a timeout that
// starts at Timeout and doubles per retry (TCP-style exponential
// backoff). Zero values select Attempts=3, Timeout=1s.
type RetryPolicy struct {
	Attempts int
	Timeout  time.Duration
}

// Validate returns an error naming the first field outside its domain:
// LatencyBase, Jitter and the retry policy must not be negative, and
// Loss must be a probability in [0, 1]. A nil profile (ideal links) is
// valid.
func (p *LinkProfile) Validate() error {
	switch {
	case p == nil:
		return nil
	case p.LatencyBase < 0:
		return fmt.Errorf("LatencyBase %v is negative", p.LatencyBase)
	case p.Jitter < 0:
		return fmt.Errorf("Jitter %v is negative", p.Jitter)
	case !(p.Loss >= 0 && p.Loss <= 1):
		return fmt.Errorf("Loss %v is NaN or outside [0, 1]", p.Loss)
	case p.Retry.Attempts < 0:
		return fmt.Errorf("Retry.Attempts %d is negative", p.Retry.Attempts)
	case p.Retry.Timeout < 0:
		return fmt.Errorf("Retry.Timeout %v is negative", p.Retry.Timeout)
	}
	return nil
}

// linkKey identifies one directed link by its endpoint IPs. Impairment
// is a property of the path, so all ports between two hosts share one
// link state.
type linkKey struct {
	src, dst string
}

// linkState is the mutable per-directed-link impairment state. It is
// created lazily on first use; its PRNG is forked from the Sim seed and
// the two IPs, so stream identity depends only on the link, never on
// creation order. The stream is held by value: most links draw a few
// values, which a lazily seeded Source computes without a register.
type linkState struct {
	rng seedfork.Source
	// fifoFloor is the earliest arrival the next delivery may have; it
	// keeps per-link delivery FIFO under jitter.
	fifoFloor time.Time
}

func hashIP(ip string) int64 {
	h := fnv.New64a()
	h.Write([]byte(ip))
	return int64(h.Sum64())
}

// linkFor returns the impairment state of the src→dst link. States are
// cached, so the per-flow cost is one map lookup.
func (n *Network) linkFor(src, dst Endpoint) *linkState {
	k := linkKey{src: src.IP, dst: dst.IP}
	if st, ok := n.links[k]; ok {
		return st
	}
	seed := seedfork.Fork(n.Sim.seed, "netsim.link", hashIP(src.IP), hashIP(dst.IP))
	st := &linkState{rng: seedfork.NewSource(seed)}
	n.links[k] = st
	return st
}

// transmit models one packet entering the link at sendAt, with the
// link's transport-level retransmission policy. It returns the
// delivery time, or (giveUpTime, false) when every attempt was lost —
// giveUpTime is when the sender's final retransmission timeout fires.
func (n *Network) transmit(lk *linkState, sendAt time.Time) (time.Time, bool) {
	p := n.link
	rto := p.Retry.Timeout
	for attempt := 1; ; attempt++ {
		if !(p.Loss > 0 && lk.rng.Float64() < p.Loss) {
			return n.deliver(lk, sendAt), true
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
// packet: propagation delay plus jitter, held back to the link's FIFO
// floor so no packet overtakes an earlier one.
func (n *Network) deliver(lk *linkState, sendAt time.Time) time.Time {
	d := n.link.LatencyBase
	if n.link.Jitter > 0 {
		d += time.Duration(lk.rng.Int63n(int64(n.link.Jitter)))
	}
	arr := sendAt.Add(d)
	if arr.Before(lk.fifoFloor) {
		arr = lk.fifoFloor
	}
	lk.fifoFloor = arr
	return arr
}

// connectImpaired resolves one flow over impaired links. Like the ideal
// path it is synchronous in virtual time: every transmission's arrival
// time is computed immediately and recorded in the flow's timestamps
// (Flow.Start is when the first payload arrived, Outcome.Elapsed is the
// client's total wait) rather than by suspending the flow on the event
// queue — preserving the Connect contract middleboxes and hosts rely
// on. fwd carries client→server segments, rev the return direction.
func (n *Network) connectImpaired(f *Flow, fwd, rev *linkState) Outcome {
	start := f.Start

	// SYN: client → server. A flow whose handshake dies is Dropped —
	// nothing ever crossed the border, so middleboxes see nothing and
	// the client (or prober) observes a failed connect.
	synAt, ok := n.transmit(fwd, start)
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
	ackAt, ok := n.transmit(rev, synAt)
	if !ok {
		n.mImpDroppedFlows.Inc()
		return Outcome{Reaction: reaction.Timeout, Dropped: true, Elapsed: ackAt.Sub(start)}
	}

	// First payload: client → server.
	payAt, ok := n.transmit(fwd, ackAt)
	if !ok {
		n.mImpDroppedFlows.Inc()
		return Outcome{Reaction: reaction.Timeout, Dropped: true, Elapsed: payAt.Sub(start)}
	}
	f.Start = payAt
	o := n.arrive(f)

	// Response: server → client. A lost response (after the sender's
	// retries) leaves the client staring at an open-but-silent
	// connection — indistinguishable from a timeout-profile server.
	respAt, ok := n.transmit(rev, payAt)
	if !ok {
		n.mImpDroppedResponses.Inc()
		return Outcome{Reaction: reaction.Timeout, Elapsed: respAt.Sub(start)}
	}
	o.Elapsed = respAt.Sub(start)
	return o
}
