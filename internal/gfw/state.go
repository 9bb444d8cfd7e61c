package gfw

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"sslab/internal/netsim"
	"sslab/internal/seedfork"
)

// This file is the censor's snapshot surface. A GFW's mutable state is
// small and regular: two RNG stream positions (plus the byte reader's
// partial draw), the per-suspect probing states, the length profiles,
// the runtime policy knobs and the report counters. Everything else —
// the detector chain, the prober pool's address tables, the metrics
// bindings — is a deterministic function of the Config and is rebuilt
// by New before RestoreState is applied. Pending censor tasks live in
// the simulator's event queue, not here; each one's data is already its
// TaskState, which the engine snapshot layer captures through
// EncodeTask and re-arms through ScheduleTask.

// ServerSnap is one suspect's serialized probing state.
type ServerSnap struct {
	EP            netsim.Endpoint
	Stage         int
	DataResponses int
	FPScore       float64
	Blocked       bool
	BlockGen      uint64
	RecordedPays  [][]byte
}

// ProfileSnap is one server's serialized first-packet length profile.
type ProfileSnap struct {
	EP      netsim.Endpoint
	Total   int32
	InRange int32
	Latch   int8
}

// State is the censor's full serializable mutable state.
type State struct {
	// RNG stream positions: draws consumed from the main and pool
	// sources, plus the byte reader's leftover partial draw.
	RNGDraws  uint64
	ReadVal   uint64
	ReadPos   int8
	PoolDraws uint64

	// Report counters (the exported ints experiment reports read).
	Triggers         int
	PayloadsRecorded int
	ProbesSent       int
	ProbeDrops       int
	ProbeRetries     int
	ProbeTimeouts    int
	BlockEvents      []BlockEvent
	StageRecs        []int

	// Per-endpoint state, sorted by endpoint for deterministic encoding.
	Servers  []ServerSnap
	Profiles []ProfileSnap

	// Runtime policy knobs (may differ from Config once a schedule has
	// fired).
	Sens      float64
	TTLHours  float64
	TTLJitter float64
	Paused    bool
}

func lessEndpoint(a, b netsim.Endpoint) bool {
	if a.IP != b.IP {
		return a.IP < b.IP
	}
	return a.Port < b.Port
}

// CaptureState returns the censor's serializable state.
func (g *GFW) CaptureState() State {
	st := State{
		RNGDraws:         g.src.Draws(),
		ReadVal:          g.rd.Val,
		ReadPos:          g.rd.Pos,
		PoolDraws:        g.poolSrc.Draws(),
		Triggers:         g.Triggers,
		PayloadsRecorded: g.PayloadsRecorded,
		ProbesSent:       g.ProbesSent,
		ProbeDrops:       g.ProbeDrops,
		ProbeRetries:     g.ProbeRetries,
		ProbeTimeouts:    g.ProbeTimeouts,
		BlockEvents:      append([]BlockEvent(nil), g.BlockEvents...),
		StageRecs:        append([]int(nil), g.stageRecs...),
		Sens:             g.sens,
		TTLHours:         g.ttlHours,
		TTLJitter:        g.ttlJitter,
		Paused:           g.paused,
	}
	st.Servers = make([]ServerSnap, 0, len(g.servers))
	for ep, s := range g.servers {
		st.Servers = append(st.Servers, ServerSnap{
			EP:            ep,
			Stage:         s.stage,
			DataResponses: s.dataResponses,
			FPScore:       s.fpScore,
			Blocked:       s.blocked,
			BlockGen:      s.blockGen,
			RecordedPays:  s.recordedPays,
		})
	}
	sort.Slice(st.Servers, func(i, j int) bool { return lessEndpoint(st.Servers[i].EP, st.Servers[j].EP) })
	st.Profiles = make([]ProfileSnap, 0, len(g.profiles))
	for ep, p := range g.profiles {
		st.Profiles = append(st.Profiles, ProfileSnap{EP: ep, Total: p.total, InRange: p.inRange, Latch: p.latch})
	}
	sort.Slice(st.Profiles, func(i, j int) bool { return lessEndpoint(st.Profiles[i].EP, st.Profiles[j].EP) })
	return st
}

// RestoreState overwrites a freshly constructed censor's mutable state
// with st. The receiver must have been built by New with the same
// Config (and on a simulator at the same virtual time) as the captured
// one; stream positions are restored by fast-forwarding fresh sources,
// so restore cost is proportional to simulated progress, not wall
// time. Metrics instruments deliberately restart cold — they feed
// observability sinks, not reports.
func (g *GFW) RestoreState(st State) error {
	if len(st.StageRecs) != len(g.stageRecs) {
		return fmt.Errorf("gfw: snapshot has %d stage counters, config builds %d — detector chain mismatch", len(st.StageRecs), len(g.stageRecs))
	}
	src := seedfork.NewCountedSource(g.cfg.Seed)
	src.Skip(st.RNGDraws)
	g.src = src
	g.rng = rand.New(src)
	g.rd = seedfork.ByteReader{Val: st.ReadVal, Pos: st.ReadPos}
	if cur := g.poolSrc.Draws(); st.PoolDraws < cur {
		return fmt.Errorf("gfw: snapshot pool position %d predates pool construction (%d draws)", st.PoolDraws, cur)
	}
	g.poolSrc.Skip(st.PoolDraws - g.poolSrc.Draws())

	g.Triggers = st.Triggers
	g.PayloadsRecorded = st.PayloadsRecorded
	g.ProbesSent = st.ProbesSent
	g.ProbeDrops = st.ProbeDrops
	g.ProbeRetries = st.ProbeRetries
	g.ProbeTimeouts = st.ProbeTimeouts
	g.BlockEvents = append([]BlockEvent(nil), st.BlockEvents...)
	copy(g.stageRecs, st.StageRecs)
	g.sens = st.Sens
	g.ttlHours = st.TTLHours
	g.ttlJitter = st.TTLJitter
	g.paused = st.Paused

	g.servers = make(map[netsim.Endpoint]*serverState, len(st.Servers))
	for _, s := range st.Servers {
		g.servers[s.EP] = &serverState{
			stage:         s.Stage,
			dataResponses: s.DataResponses,
			fpScore:       s.FPScore,
			blocked:       s.Blocked,
			blockGen:      s.BlockGen,
			recordedPays:  s.RecordedPays,
		}
	}
	g.profiles = make(map[netsim.Endpoint]*lenProfile, len(st.Profiles))
	for _, p := range st.Profiles {
		g.profiles[p.EP] = &lenProfile{total: p.Total, inRange: p.InRange, latch: p.Latch}
	}
	return nil
}

// TaskState is one pending censor task — a scheduled probe batch
// member, an NR2 duplicate, a dropped-probe retry, or a rule unblock —
// in the form the scheduled task itself carries and a snapshot
// serializes. Kind discriminates; the other fields are used by the
// kinds that need them (see the kind constants in gfw.go).
type TaskState struct {
	Kind     string // "probe", "dup", "retry" or "unblock"
	Server   netsim.Endpoint
	Payload  []byte
	RecAt    time.Time
	Typ      int // probe.Type (retry)
	ReplayOf time.Time
	Attempt  int
	ByIP     bool
	RuleGen  uint64
	BlockGen uint64
}

// EncodeTask captures a scheduled event argument belonging to this
// package. The second result is false for arguments of other layers
// (the engine snapshot walker tries each layer's encoder in turn).
func EncodeTask(arg any) (TaskState, bool) {
	t, ok := arg.(*task)
	if !ok {
		return TaskState{}, false
	}
	return t.TaskState, true
}

// ScheduleTask re-arms a captured task at the given virtual time.
// Re-arming in original sequence order reproduces the captured run's
// dispatch order (see netsim.PendingEvents).
func (g *GFW) ScheduleTask(at time.Time, st TaskState) error {
	switch st.Kind {
	case kindProbe, kindDup, kindRetry, kindUnblock:
		g.sim.AtCall(at, runProbeTask, g.newTask(st))
		return nil
	}
	return fmt.Errorf("gfw: unknown task kind %q", st.Kind)
}

// SetSensitivity adjusts the blocking module's "human factor" gate at
// run time — the paper's politically-sensitive-period lever, driven by
// the spatiotemporal schedule layer. The value must already be a valid
// probability; callers validate via region.Schedule.Validate or
// Config.Validate.
func (g *GFW) SetSensitivity(p float64) { g.sens = p }

// SetBlockTTL adjusts how long subsequent blocking rules stay
// installed: ttlHours plus a uniform whole-hour jitter in
// [0, jitterHours). A zero jitter skips the jitter draw entirely.
// Already-scheduled unblocks are unaffected.
func (g *GFW) SetBlockTTL(ttlHours, jitterHours float64) {
	g.ttlHours = ttlHours
	g.ttlJitter = jitterHours
}

// SetProbingPaused stops (or resumes) the censor's recording and
// probing while leaving passive observation running: profiles keep
// filling and verdicts are still computed, but nothing is recorded and
// no probe — including already-scheduled batches, retries and NR2
// duplicates — is sent while paused.
func (g *GFW) SetProbingPaused(paused bool) { g.paused = paused }
