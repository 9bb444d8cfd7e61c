// Package experiment contains the harnesses that re-run every measurement
// experiment in the paper on the simulated substrate and produce reports
// with the same structure as the paper's tables and figures. Each report
// type has a Render method that prints a terminal version of the artifact,
// and exported fields that the test- and benchmark-suite assert against.
//
// Experiment index (see DESIGN.md for the full mapping):
//
//	ShadowsocksExperiment — §3.1 → Figures 2, 3, 5, 6, 7; Tables 2, 3; Figure 4
//	SinkExperiments       — §4.1 → Table 4; Figures 8, 9; staged probing
//	BrdgrdExperiment      — §7.1 → Figure 11
//	ReactionMatrices      — §5   → Figures 10a, 10b; Table 5
package experiment

import (
	"fmt"
	"time"

	"sslab/internal/netsim"
	"sslab/internal/reaction"
	"sslab/internal/sscrypto"
)

// Timeline reproduces Table 1: the time span of each set of experiments.
type Timeline struct {
	Rows []TimelineRow
}

// TimelineRow is one Table 1 entry.
type TimelineRow struct {
	Experiment string
	Start, End time.Time
	Span       string
}

// Table1 returns the paper's experiment timeline.
func Table1() Timeline {
	d := func(y int, m time.Month, day int) time.Time {
		return time.Date(y, m, day, 0, 0, 0, 0, time.UTC)
	}
	return Timeline{Rows: []TimelineRow{
		{"Shadowsocks", d(2019, 9, 29), d(2020, 1, 21), "4 months"},
		{"Sink", d(2020, 5, 16), d(2020, 5, 31), "2 weeks"},
		{"Brdgrd", d(2019, 11, 2), d(2019, 11, 19), "403 hours"},
	}}
}

// Render prints Table 1.
func (t Timeline) Render() string {
	out := "Table 1: Timeline of all major experiments\n"
	for _, r := range t.Rows {
		out += fmt.Sprintf("  %-12s %s – %s (%s)\n",
			r.Experiment, r.Start.Format("Jan 2, 2006"), r.End.Format("Jan 2, 2006"), r.Span)
	}
	return out
}

// ServerHost adapts a reaction.Server into a netsim.Host. Genuine client
// flows are served (and their IV/salt registered in the replay filter);
// probe flows get the reaction engine's verdict. Identical replays
// (netsim.Flow.Replayed) against a server without replay defense are
// served with data — the behaviour that drives the GFW's escalation.
type ServerHost struct {
	Server *reaction.Server
	Sim    *netsim.Sim

	// Sink turns the host into §4.1's sink server: TCP accepts, no data,
	// and no protocol processing at all.
	Sink bool
	// RespondAll turns the host into §4.1's responding server: 1–1000
	// random bytes to every prober.
	RespondAll bool

	// ProbesSeen counts probe flows delivered to this host.
	ProbesSeen int
}

// NewServerHost builds a host for a profile/method pair.
func NewServerHost(sim *netsim.Sim, p reaction.Profile, method, password string) (*ServerHost, error) {
	spec, err := sscrypto.Lookup(method)
	if err != nil {
		return nil, err
	}
	srv, err := reaction.NewServer(p, spec, password)
	if err != nil {
		return nil, err
	}
	return &ServerHost{Server: srv, Sim: sim}, nil
}

// HandleFlow implements netsim.Host.
func (h *ServerHost) HandleFlow(f *netsim.Flow) netsim.Outcome {
	now := h.Sim.Now()
	if !f.Probe {
		// A genuine client: the proxy serves it. Its nonce enters the
		// replay filter exactly as real processing would record it.
		if h.Sink {
			return netsim.Outcome{Reaction: reaction.Timeout}
		}
		if h.Server != nil {
			h.Server.RegisterNonce(f.FirstPayload, now)
		}
		return netsim.Outcome{Reaction: reaction.Data, ResponseLen: 1200}
	}

	h.ProbesSeen++
	if h.RespondAll {
		return netsim.Outcome{Reaction: reaction.Data, ResponseLen: 500}
	}
	if h.Sink {
		return netsim.Outcome{Reaction: reaction.Timeout}
	}

	// Identical replay against an undefended server is served like a
	// fresh client (Table 5's "D"); everything else gets the reaction
	// engine's verdict (the payload entropy makes it equivalent to a
	// random probe whenever it is not an exact replay).
	if f.Replayed && !h.Server.Profile.ReplayDefense {
		return netsim.Outcome{Reaction: reaction.Data, ResponseLen: 800}
	}
	r := h.Server.ReactAt(f.FirstPayload, f.GeneratedAt, now)
	return netsim.Outcome{Reaction: r.Reaction}
}
