package netsim

import (
	"sort"
	"time"
)

// This file is the simulator's snapshot surface: a read-only view of the
// pending event heap and the network's serializable rule state. The
// engine snapshot layer (internal/fleet) uses these to capture a run at
// a quiescent RunUntil(T) boundary — where every pending event's time
// is strictly after T — and to rebuild an equivalent schedule on
// restore. Relative dispatch order is all that matters for
// byte-identity: re-pushing heap events in their original sequence
// order reproduces the (time, sequence) total order even though the
// absolute sequence numbers differ.

// PendingEvent is a read-only view of one queued Sim event, call(arg).
// A closure scheduled with At or After appears as an unexported
// trampoline with the func() as Arg.
type PendingEvent struct {
	At   time.Time
	Seq  uint64
	Call func(any)
	Arg  any
}

// PendingEvents returns the heap's events sorted by insertion sequence
// (the order that, re-pushed at restore, reproduces dispatch order).
// The callback values are shared, not copied; callers must treat them
// as opaque classification keys.
func (s *Sim) PendingEvents() []PendingEvent {
	out := make([]PendingEvent, 0, len(s.pq))
	for i := range s.pq {
		e := &s.pq[i]
		out = append(out, PendingEvent{At: timeOf(e.at), Seq: e.seq, Call: e.call, Arg: e.arg})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// IPRule is one serialized IP null-routing rule.
type IPRule struct {
	IP  string
	Gen uint64
}

// PortRule is one serialized per-endpoint null-routing rule.
type PortRule struct {
	Endpoint Endpoint
	Gen      uint64
}

// NetworkState is the network's serializable mutable state: the active
// blocking rules with their generations, the rule-generation counter,
// and the flow counters that feed flow IDs and reports. Host bindings
// and middleboxes are topology, not state — the restorer re-creates
// them deterministically before applying a NetworkState.
type NetworkState struct {
	BlockedIP   []IPRule
	BlockedPort []PortRule
	BlockGen    uint64
	NextID      uint64
	Flows       int
}

// CaptureState returns the network's mutable state with rules in
// deterministic (address-sorted) order.
func (n *Network) CaptureState() NetworkState {
	st := NetworkState{
		BlockedIP:   make([]IPRule, 0, len(n.blockedIP)),
		BlockedPort: make([]PortRule, 0, len(n.blockedPort)),
		BlockGen:    n.blockGen,
		NextID:      n.nextID,
		Flows:       n.Flows,
	}
	for ip, gen := range n.blockedIP {
		st.BlockedIP = append(st.BlockedIP, IPRule{IP: ip, Gen: gen})
	}
	sort.Slice(st.BlockedIP, func(i, j int) bool { return st.BlockedIP[i].IP < st.BlockedIP[j].IP })
	for ep, gen := range n.blockedPort {
		st.BlockedPort = append(st.BlockedPort, PortRule{Endpoint: ep, Gen: gen})
	}
	sort.Slice(st.BlockedPort, func(i, j int) bool {
		a, b := st.BlockedPort[i].Endpoint, st.BlockedPort[j].Endpoint
		if a.IP != b.IP {
			return a.IP < b.IP
		}
		return a.Port < b.Port
	})
	return st
}

// RestoreState overwrites the network's mutable state with st.
func (n *Network) RestoreState(st NetworkState) {
	n.blockedIP = make(map[string]uint64, len(st.BlockedIP))
	for _, r := range st.BlockedIP {
		n.blockedIP[r.IP] = r.Gen
	}
	n.blockedPort = make(map[Endpoint]uint64, len(st.BlockedPort))
	for _, r := range st.BlockedPort {
		n.blockedPort[r.Endpoint] = r.Gen
	}
	n.blockGen = st.BlockGen
	n.nextID = st.NextID
	n.Flows = st.Flows
}
