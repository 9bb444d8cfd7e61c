package experiment

import (
	"time"

	"sslab/internal/gfw"
	"sslab/internal/netsim"
	"sslab/internal/seedfork"
)

// testbed is the censored vantage point every netsim-backed experiment
// measures from: a sim rooted at the experiment seed (so link-impairment
// streams are reproducible per seed), a network carrying the optional
// impairment profile on every link, and the GFW on the path between
// the experiment's clients and servers. A nil profile — the default for
// all experiment configs — yields the historical ideal network.
type testbed struct {
	sim *netsim.Sim
	net *netsim.Network
	gfw *gfw.GFW
}

// newTestbed builds a vantage point whose censor runs gcfg with its
// seed forked from (seed, label, idx...).
func newTestbed(seed int64, impair *netsim.LinkProfile, gcfg gfw.Config, label string, idx ...int64) *testbed {
	sim := netsim.NewSim(netsim.WithSeed(seed))
	var opts []netsim.NetworkOption
	if impair != nil {
		opts = append(opts, netsim.WithDefaultLink(*impair))
	}
	net := netsim.NewNetwork(sim, opts...)
	gcfg.Seed = seedfork.Fork(seed, label, idx...)
	g := gfw.New(gfw.Env{Sim: sim, Net: net}, gfw.WithConfig(gcfg))
	net.AddMiddlebox(g)
	return &testbed{sim: sim, net: net, gfw: g}
}

// sink adds a §4.1 sink server at ep: it accepts every connection and
// never answers.
func (b *testbed) sink(ep netsim.Endpoint) *ServerHost {
	h := &ServerHost{Sim: b.sim, Sink: true, seen: map[uint64]struct{}{}}
	b.net.AddHost(ep, h)
	return h
}

// until schedules a client driver: send runs start after the epoch and
// then every gap, for as long as the virtual clock has not passed end.
func (b *testbed) until(end time.Time, start, gap time.Duration, send func()) {
	var tick func()
	tick = func() {
		if b.sim.Now().After(end) {
			return
		}
		send()
		b.sim.After(gap, tick)
	}
	b.sim.After(start, tick)
}

// times schedules a client driver that runs send n times, start after
// the epoch and then every gap.
func (b *testbed) times(n int, start, gap time.Duration, send func()) {
	sent := 0
	var tick func()
	tick = func() {
		if sent >= n {
			return
		}
		sent++
		send()
		b.sim.After(gap, tick)
	}
	b.sim.After(start, tick)
}

// transport is the impairment accounting a report carries. The prober's
// counters are probes whose connects died on lossy links, the retries
// that followed, and probes reclassified as timeouts because the
// impaired round trip outlasted the prober's patience; the link
// counters are the transport retransmissions the links absorbed and the
// flows lost after every retry. All zero on ideal links, where the
// omitzero tags keep unimpaired reports byte-identical to
// pre-impairment ones.
type transport struct {
	ProbeDrops       int   `json:"ProbeDrops,omitzero"`
	ProbeRetries     int   `json:"ProbeRetries,omitzero"`
	ProbeTimeouts    int   `json:"ProbeTimeouts,omitzero"`
	LinkRetransmits  int64 `json:"LinkRetransmits,omitzero"`
	LinkDroppedFlows int64 `json:"LinkDroppedFlows,omitzero"`
}

// transport reads the testbed's impairment accounting after a run.
func (b *testbed) transport() transport {
	return transport{
		ProbeDrops:       b.gfw.ProbeDrops,
		ProbeRetries:     b.gfw.ProbeRetries,
		ProbeTimeouts:    b.gfw.ProbeTimeouts,
		LinkRetransmits:  b.sim.Metrics.Counter("net.impair_retransmits").Value(),
		LinkDroppedFlows: b.sim.Metrics.Counter("net.impair_dropped_flows").Value(),
	}
}
