// Package gfw is a behavioural model of the Great Firewall's Shadowsocks
// detection pipeline as reverse-engineered by the paper: a passive
// traffic-analysis stage keyed on the length and entropy of each
// connection's first data packet (§4), a staged active-probing stage that
// replays recorded payloads and sends random probes from a large pool of
// source addresses (§3), and a blocking module that null-routes confirmed
// servers by port or by IP (§6).
//
// The model plugs into internal/netsim as a Middlebox and is calibrated to
// every quantitative observation in the paper; see internal/experiment for
// the harnesses that regenerate each figure and table.
package gfw

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"sslab/internal/capture"
	"sslab/internal/detector"
	"sslab/internal/metrics"
	"sslab/internal/netsim"
	"sslab/internal/probe"
	"sslab/internal/reaction"
	"sslab/internal/seedfork"
)

// Config tunes the model. Zero values select paper-calibrated defaults.
type Config struct {
	// Seed drives all of the model's randomness.
	Seed int64
	// PoolSize is the number of prober source addresses (default 13000,
	// which yields ≈12,300 distinct addresses over a four-month
	// experiment as in §3.3; at most 638,611, what the prober prefixes
	// hold at Table 3's weights).
	PoolSize int
	// ReplayBase scales the passive detector's recording rate (finite,
	// >= 0; default 0.04, calibrated to Exp 1.a's replay-to-trigger ratio).
	ReplayBase float64
	// BlockThreshold is the fingerprint-evidence score at which a server
	// becomes a blocking candidate (default 10). Blocking additionally
	// requires the server to have served at least minDataResponses
	// replayed payloads — see maybeBlock.
	BlockThreshold float64
	// Sensitivity is the probability a blocking candidate actually gets
	// blocked — the "human factor" of §6 (default 0: probing without
	// blocking, as the paper observed for most servers; raise it to
	// simulate politically sensitive periods).
	Sensitivity float64
	// DisableLengthFeature / DisableEntropyFeature are ablation switches
	// for the two detector features.
	DisableLengthFeature  bool
	DisableEntropyFeature bool
	// Detectors names the passive-detector stage chain, in evaluation
	// order: each of detector.Names() ("fullyencrypted", "openvpn",
	// "shadowsocks", "tlsexempt") at most once. Listing "tlsexempt"
	// models a censor that exempts TLS-framed flows to avoid
	// mass-probing the web. Empty selects the classic single-stage
	// Shadowsocks chain, which leaves every pinned report byte-identical
	// to the pre-chain pipeline. The winning stage's confidence is the
	// probability the flow is recorded for active probing.
	Detectors []string `json:"Detectors,omitempty"`
	// NoProbeLog disables the packet-level capture log of outgoing
	// probes. Population-scale fleet runs emit hundreds of thousands of
	// probes whose per-record fingerprints nothing reads; the aggregate
	// counters, BlockEvents and per-server state are unaffected. The
	// zero value keeps the log, so existing experiments are unchanged.
	NoProbeLog bool `json:"NoProbeLog,omitzero"`
	// VerdictCache must be zero; Validate rejects anything else. The
	// verdict cache it sized is deleted (DESIGN.md, "One flow path");
	// the field remains only because the benchmark module
	// (bench/layers.go) still assigns it, and omitzero keeps it out of
	// every report.
	VerdictCache int `json:"VerdictCache,omitzero"`
}

func (c Config) withDefaults() Config {
	if c.PoolSize == 0 {
		c.PoolSize = 13000
	}
	if c.ReplayBase == 0 {
		c.ReplayBase = 0.04
	}
	if c.BlockThreshold == 0 {
		c.BlockThreshold = 10
	}
	if len(c.Detectors) == 0 {
		c.Detectors = []string{detector.StageShadowsocks}
	}
	return c
}

// The censor's fixed policy numbers, which no configuration sets.
const (
	// minDataResponses is how many replay probes a server must answer
	// with data before it can be blocked.
	minDataResponses = 2
	// nr1MinFlows is how many observed flows a server needs before the
	// detector judges (once, latched) whether its traffic looks like
	// Shadowsocks and qualifies for NR1 probing. See DESIGN.md.
	nr1MinFlows = 300
	// blockTTLHours is how long a blocking rule stays installed before
	// the scheduled unblock fires (one week, §6's "more than a week"
	// observation), and blockTTLJitterHours the width of the uniform
	// whole-hour jitter added on top: the now+1w+Intn(1w) rule. They
	// set the initial runtime TTL, which SetBlockTTL changes.
	blockTTLHours       = 168
	blockTTLJitterHours = 168
)

// Validate checks the configuration fields whose domains the model
// depends on, as written: zero fields stand for their defaults.
// Sensitivity is a probability: values outside [0, 1] (or NaN) would
// silently saturate the blocking coin flip — a negative value behaves
// exactly like 0 and anything above 1 exactly like 1 — so
// misconfigurations hide instead of failing; so would a negative
// ReplayBase (records nothing) or a NaN or +Inf one (records every
// in-support flow). A negative PoolSize builds a pool of one address
// per AS or panics, and one larger than the prober prefixes hold never
// finishes building. Detectors must name each stage of
// detector.Names() at most once. This is the one check of the censor's
// configuration: New panics on an invalid Config, so callers
// assembling configs from user input call Validate first and surface
// its error.
func (c Config) Validate() error {
	if limit := maxPoolSize(); c.PoolSize < 0 || c.PoolSize > limit {
		return fmt.Errorf("gfw: PoolSize must be in [0, %d], got %d", limit, c.PoolSize)
	}
	if math.IsNaN(c.Sensitivity) || c.Sensitivity < 0 || c.Sensitivity > 1 {
		return fmt.Errorf("gfw: Sensitivity must be in [0, 1], got %v", c.Sensitivity)
	}
	if c.ReplayBase < 0 || math.IsNaN(c.ReplayBase) || math.IsInf(c.ReplayBase, 1) {
		return fmt.Errorf("gfw: ReplayBase must be finite and non-negative, got %v", c.ReplayBase)
	}
	if err := detector.ValidateNames(c.Detectors); err != nil {
		return fmt.Errorf("gfw: Detectors: %w", err)
	}
	if c.VerdictCache != 0 {
		return fmt.Errorf("gfw: VerdictCache must be 0 (the verdict cache was removed), got %d", c.VerdictCache)
	}
	return nil
}

// BlockEvent records one blocking decision.
type BlockEvent struct {
	Time   time.Time
	Server netsim.Endpoint
	ByIP   bool // true: all ports of the IP; false: single port
	Until  time.Time
}

// GFW is the censor model. Create with New, then attach to a network with
// netsim.Network.AddMiddlebox.
type GFW struct {
	cfg   Config
	sim   *netsim.Sim
	net   *netsim.Network
	chain *detector.Chain
	Pool  *Pool

	// rng and Pool's stream are the censor's randomness; their positions
	// are its whole serializable stream state (see state.go). &rng is
	// also the probe.RNG probe.Build draws from.
	rng seedfork.Source

	// Runtime policy knobs, initialized from Config and the block-TTL
	// constants and adjustable mid-run by the spatiotemporal schedule
	// layer (SetSensitivity, SetBlockTTL, SetProbingPaused). They never
	// feed back into cfg, so a Config round-trip reports what the
	// censor was built with.
	sens      float64
	ttlHours  float64
	ttlJitter float64
	paused    bool

	// stageRecs counts recordings attributed to each chain stage (the
	// stage whose confidence won the flow), parallel to chain.Names();
	// mStageRec are the matching pre-resolved counters.
	stageRecs []int
	mStageRec []*metrics.Counter

	// Log records every probe sent, with packet-level fingerprints.
	Log *capture.Log

	// servers holds per-suspect probing state, materialized lazily at a
	// server's first recording (or first probe); merely sending flows
	// never creates an entry, so the map is bounded by the number of
	// servers the censor actually suspects, not by the population.
	servers map[netsim.Endpoint]*serverState

	// profiles tracks the lightweight first-packet length profile for
	// NR1 qualification. Unlike servers it is fed by every
	// payload-bearing flow (the profile must exist before any
	// recording), but each entry is a few words, not a probing state.
	profiles map[netsim.Endpoint]*lenProfile

	// taskFree recycles the argument structs of scheduled censor tasks
	// (see task).
	taskFree []*task

	// Pre-resolved instruments on the sim's registry (hot path: no map
	// lookups per flow).
	mTriggers      *metrics.Counter
	mRecorded      *metrics.Counter
	mProbes        *metrics.Counter
	mBlocks        *metrics.Counter
	mProbeDrops    *metrics.Counter
	mProbeRetries  *metrics.Counter
	mProbeTimeouts *metrics.Counter

	// Counters for experiment reports.
	Triggers         int // non-probe flows observed
	PayloadsRecorded int // first payloads recorded for replay
	ProbesSent       int
	BlockEvents      []BlockEvent
	// Impairment-visible probe accounting: probes whose connection the
	// network dropped, retries scheduled in response, and reactions
	// reclassified as timeouts because they arrived past the prober's
	// patience. All stay zero on ideal links.
	ProbeDrops    int
	ProbeRetries  int
	ProbeTimeouts int
}

// serverState is the per-suspect staged probing state (§4.2: "the active
// probing system operates in stages").
type serverState struct {
	stage         int // 1: R1/R2/NR2; 2: adds R3/R4 (+rare R5/R6)
	dataResponses int // probes the server answered with data
	fpScore       float64
	blocked       bool
	// blockGen counts blocks of this server; the scheduled unblock only
	// clears state belonging to its own generation, so a re-block that
	// lands before a pending unblock fires is not cleared early.
	blockGen uint64
}

// ssLikeFrac is the calibrated NR1 discriminator threshold: the fraction
// of a server's payload-bearing first packets that must fall in 160–700
// bytes before its traffic is judged Shadowsocks-like. 63% sits between
// real Shadowsocks handshakes (nearly all in range) and uniform random
// lengths (~54% in 1–1000, ~27% in 1–2000); see DESIGN.md.
const ssLikeFrac = 0.63

// lenProfile is a server's first-packet length profile, fed by every
// payload-bearing flow. Only flows that carried a first payload count:
// empty first flights (dropped or impaired connections) say nothing
// about the server's handshake lengths and must not dilute the
// denominator — with the judgment latched at nr1MinFlows, dilution
// could permanently misclassify a genuine Shadowsocks server.
type lenProfile struct {
	total   int32 // payload-bearing flows observed
	inRange int32 // flows whose first packet was 160-700 bytes
	latch   int8  // 0: not yet judged; +1: ss-like; -1: not
}

// ssLike reports whether the server's traffic looks like Shadowsocks:
// first-packet lengths concentrated where real Shadowsocks handshakes
// land (at least ssLikeFrac = 63% in 160–700 bytes). The judgment is
// made once, after nr1MinFlows observations, and latched. This is the
// discriminator that explains why NR1 probes appeared in the
// Shadowsocks experiments but never in the uniform-random-length
// experiments of §4 (see DESIGN.md).
func (p *lenProfile) ssLike() bool {
	if p.latch != 0 {
		return p.latch > 0
	}
	if p.total < nr1MinFlows {
		return false
	}
	if float64(p.inRange) >= ssLikeFrac*float64(p.total) {
		p.latch = 1
		return true
	}
	p.latch = -1
	return false
}

// Env is the simulation substrate a GFW attaches to: the event
// scheduler and the network whose border it sits on. It exists so the
// censor's constructor takes one environment value plus options, rather
// than a growing list of positional parameters.
type Env struct {
	Sim *netsim.Sim
	Net *netsim.Network
}

// Option configures the censor at construction (see New).
type Option func(*Config)

// WithConfig replaces the whole configuration — the bridge from the
// config-struct world (experiment harnesses, sweep overrides) into the
// options world.
func WithConfig(cfg Config) Option {
	return func(c *Config) { *c = cfg }
}

// New creates a GFW on env, configured by options over the zero Config
// (zero values select paper-calibrated defaults). The caller must also
// register it: env.Net.AddMiddlebox(g). New panics on a Config that
// Validate rejects; validate user input first.
func New(env Env, opts ...Option) *GFW {
	var cfg Config
	for _, o := range opts {
		o(&cfg)
	}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg = cfg.withDefaults()
	sim, net := env.Sim, env.Net
	//sslab:allow-seedfork historical +1 offset is baked into the zero-impairment goldens and EXPERIMENTS.md; changing the pool stream would invalidate every pinned report
	poolRng := seedfork.NewSource(cfg.Seed + 1)
	chain, err := detector.NewChain(cfg.Detectors, detector.Params{
		Base:           cfg.ReplayBase,
		DisableLength:  cfg.DisableLengthFeature,
		DisableEntropy: cfg.DisableEntropyFeature,
	})
	if err != nil {
		panic(err)
	}
	g := &GFW{
		cfg:            cfg,
		sim:            sim,
		net:            net,
		rng:            seedfork.NewSource(cfg.Seed),
		sens:           cfg.Sensitivity,
		ttlHours:       blockTTLHours,
		ttlJitter:      blockTTLJitterHours,
		chain:          chain,
		stageRecs:      make([]int, chain.Len()),
		mStageRec:      make([]*metrics.Counter, chain.Len()),
		Pool:           NewPool(poolRng, cfg.PoolSize, sim.Now()),
		Log:            capture.NewLog(sim.Now()),
		servers:        map[netsim.Endpoint]*serverState{},
		profiles:       map[netsim.Endpoint]*lenProfile{},
		mTriggers:      sim.Metrics.Counter("gfw.triggers"),
		mRecorded:      sim.Metrics.Counter("gfw.payloads_recorded"),
		mProbes:        sim.Metrics.Counter("gfw.probes_sent"),
		mBlocks:        sim.Metrics.Counter("gfw.block_events"),
		mProbeDrops:    sim.Metrics.Counter("gfw.probe_drops"),
		mProbeRetries:  sim.Metrics.Counter("gfw.probe_retries"),
		mProbeTimeouts: sim.Metrics.Counter("gfw.probe_timeouts"),
	}
	for i, name := range chain.Names() {
		g.mStageRec[i] = sim.Metrics.Counter("gfw.recorded." + name)
	}
	return g
}

// state returns (materializing on first use) the per-suspect probing
// state. It is called only from the recording branch of OnFlow and from
// the probe paths — never for a flow that merely crosses the border —
// so a server enters the map only once the censor actually suspects it.
// Materialization draws no RNG, so laziness is invisible to goldens.
func (g *GFW) state(server netsim.Endpoint) *serverState {
	s, ok := g.servers[server]
	if !ok {
		s = &serverState{stage: 1}
		g.servers[server] = s
	}
	return s
}

// profile returns (materializing on first use) the server's first-packet
// length profile.
//
//sslab:hotpath
func (g *GFW) profile(server netsim.Endpoint) *lenProfile {
	p, ok := g.profiles[server]
	if !ok {
		p = &lenProfile{}
		g.profiles[server] = p
	}
	return p
}

// SuspectedServers returns how many servers have materialized probing
// state — the size of the lazily-populated servers map, bounded by the
// servers the censor has actually recorded or probed rather than by
// every endpoint that ever sent a flow.
func (g *GFW) SuspectedServers() int { return len(g.servers) }

// Stage returns the probing stage for a server (0 if never suspected).
func (g *GFW) Stage(server netsim.Endpoint) int {
	if s, ok := g.servers[server]; ok {
		return s.stage
	}
	return 0
}

// DetectorNames returns the detector chain, in evaluation order.
func (g *GFW) DetectorNames() []string { return g.chain.Names() }

// StageCount is one detector stage's share of the recordings.
type StageCount struct {
	// Name is the stage's name (one of detector.Names()).
	Name string
	// Recorded counts recordings this stage's confidence won.
	Recorded int
}

// StageRecordings attributes PayloadsRecorded to the chain stage whose
// verdict won each flow, in chain order.
func (g *GFW) StageRecordings() []StageCount {
	out := make([]StageCount, g.chain.Len())
	for i, name := range g.chain.Names() {
		out[i] = StageCount{Name: name, Recorded: g.stageRecs[i]}
	}
	return out
}

// OnFlow implements netsim.Middlebox: passive analysis of a crossing flow.
//
//sslab:hotpath
func (g *GFW) OnFlow(f *netsim.Flow) {
	if f.Probe {
		return // the censor does not re-analyze its own probes
	}
	g.Triggers++
	g.mTriggers.Inc()

	// Payload-less flows (dropped or impaired connections, empty first
	// flights) carry no signal: they must not feed the length profile —
	// the latched NR1 judgment would be permanently diluted — and give
	// the detector chain nothing to judge.
	if len(f.FirstPayload) == 0 {
		return
	}

	// Track the first-packet length profile for NR1 qualification.
	p := g.profile(f.Server)
	p.total++
	if n := len(f.FirstPayload); n >= 160 && n <= 700 {
		p.inRange++
	}

	// The detector chain judges the flow: an Exempt verdict (e.g. the
	// tlsexempt whitelist stage) or an all-Pass chain — the common case
	// for unremarkable traffic — needs no coin flip; a Suspect verdict's
	// confidence is the recording probability, which Decide computes
	// only for a draw under Bound's entropy-free upper bound on it.
	// A schedule-paused censor keeps watching (profiles keep filling,
	// verdicts are still computed) but records nothing and sends no
	// probes; the gate sits before the coin flip, so an unpaused run's
	// RNG stream is untouched.
	bound := g.chain.Bound(f)
	if g.paused || bound.Verdict != detector.Suspect {
		return
	}
	winner, ok := g.chain.Decide(f, bound, g.rng.Float64())
	if !ok {
		return
	}

	// Record the payload and schedule a batch of probes derived from it.
	// This is the first point at which the server's probing state — and
	// its servers-map entry — comes into existence. The recording is one
	// copy of the flight, held only by its probe tasks, so it is freed
	// once the last of them has run.
	g.state(f.Server)
	g.PayloadsRecorded++
	g.mRecorded.Inc()
	g.stageRecs[winner]++
	g.mStageRec[winner].Inc()
	payload := append([]byte(nil), f.FirstPayload...) //sslab:allow-hotpath recorded flows only (at seed 7, 4 in 1,000 on fleet-ss, 127 in 1,000 on fleet-armsrace-lossy); the copy must outlive the arena-backed flow until its last probe runs

	at := g.sim.Now()
	n := sampleRepeatCount(&g.rng)
	for i := 0; i < n; i++ {
		g.sim.AfterCall(sampleDelay(&g.rng), runProbeTask,
			g.newTask(TaskState{Kind: kindProbe, Server: f.Server, Payload: payload, RecAt: at}))
	}
}

// Every scheduled censor action — a probe of a recorded payload, an
// NR2 duplicate, a dropped probe's retry, a rule unblock — is one task:
// its data is its snapshot form (TaskState), so EncodeTask and
// ScheduleTask convert nothing. The Kind values are the snapshot's.
const (
	kindProbe   = "probe"   // Server, Payload (the recording), RecAt
	kindDup     = "dup"     // Server, Payload
	kindRetry   = "retry"   // Server, Payload, Typ, ReplayOf, Attempt, Replayed
	kindUnblock = "unblock" // Server, ByIP, RuleGen, BlockGen
)

// task carries one scheduled censor action through the closure-free
// netsim.AfterCall/AtCall path; tasks recycle via GFW.taskFree.
type task struct {
	g *GFW
	TaskState
}

func (g *GFW) newTask(st TaskState) *task {
	if n := len(g.taskFree); n > 0 {
		t := g.taskFree[n-1]
		g.taskFree = g.taskFree[:n-1]
		t.g, t.TaskState = g, st
		return t
	}
	return &task{g: g, TaskState: st}
}

// runProbeTask is the trampoline of every task kind: a single
// package-level function value, so scheduling allocates no closure.
// Duplicates and retries re-resolve the server state at fire time; an
// unblock clears the network rule only if it is still the one its block
// installed, and the server's blocked flag only for its own block
// generation. The name predates the other kinds sharing it, and is kept
// because the benchmark's CPU-profile focus for the prober layer
// (bench/trace.go) matches it.
func runProbeTask(x any) {
	t := x.(*task)
	g, st := t.g, t.TaskState
	t.g, t.TaskState = nil, TaskState{}
	g.taskFree = append(g.taskFree, t)
	switch st.Kind {
	case kindProbe:
		g.sendProbe(st.Server, st.Payload, st.RecAt)
	case kindDup:
		g.emit(st.Server, g.state(st.Server), probe.NR2, st.Payload, time.Time{}, false, 1)
	case kindRetry:
		g.emit(st.Server, g.state(st.Server), probe.Type(st.Typ), st.Payload, st.ReplayOf, st.Replayed, st.Attempt)
	case kindUnblock:
		if st.ByIP {
			g.net.UnblockIPIf(st.Server.IP, st.RuleGen)
		} else {
			g.net.UnblockPortIf(st.Server, st.RuleGen)
		}
		if s := g.state(st.Server); s.blockGen == st.BlockGen {
			s.blocked = false
		}
	}
}

// chooseType picks a probe type for the server's current stage. The
// weights reproduce the observed type mix: in stage 1 only identical
// replays, byte-0-changed replays and 221-byte random probes appear; once
// the server has answered a replay with data, the targeted R3/R4 probes
// dominate additions, with R5 vanishingly rare (two were ever observed)
// and R6 appearing only after the sink→responding switch (Exp 1.b).
// Servers whose traffic profile looks like genuine Shadowsocks usage also
// receive NR1 probes, at one third the NR2 rate (Figure 2's 3:1 ratio).
func (g *GFW) chooseType(stage int, ssLike bool) probe.Type {
	x := g.rng.Float64()
	if stage < 2 {
		if ssLike {
			switch {
			case x < 0.52:
				return probe.R1
			case x < 0.76:
				return probe.R2
			case x < 0.94:
				return probe.NR2
			default:
				return probe.NR1
			}
		}
		switch {
		case x < 0.55:
			return probe.R1
		case x < 0.80:
			return probe.R2
		default:
			return probe.NR2
		}
	}
	if ssLike {
		switch {
		case x < 0.26:
			return probe.R1
		case x < 0.39:
			return probe.R2
		case x < 0.60:
			return probe.R3
		case x < 0.81:
			return probe.R4
		case x < 0.8105:
			return probe.R5
		case x < 0.8285:
			return probe.R6
		case x < 0.955:
			return probe.NR2
		default:
			return probe.NR1
		}
	}
	switch {
	case x < 0.28:
		return probe.R1
	case x < 0.42:
		return probe.R2
	case x < 0.64:
		return probe.R3
	case x < 0.86:
		return probe.R4
	case x < 0.8605:
		return probe.R5
	case x < 0.8785:
		return probe.R6
	default:
		return probe.NR2
	}
}

// sendProbe emits one probe derived from rec, the payload recorded at
// recAt, toward server.
//
//sslab:hotpath
func (g *GFW) sendProbe(server netsim.Endpoint, rec []byte, recAt time.Time) {
	if g.paused {
		return // scheduled before a probing pause took effect
	}
	s := g.state(server)
	typ := g.chooseType(s.stage, g.profile(server).ssLike())
	var replayOf time.Time
	payload := probe.Build(typ, rec, &g.rng)
	if typ.Replay() {
		replayOf = recAt
	}
	// Identical replays: every R1, and any replay of a rec too short to mutate.
	g.emit(server, s, typ, payload, replayOf, typ.Replay() && bytes.Equal(payload, rec), 1)

	// §5.3: around 10% of NR2 probes are sent to the same server more
	// than once — a replay-filter detection trick.
	if typ == probe.NR2 && g.rng.Float64() < 0.10 {
		dup := append([]byte(nil), payload...) //sslab:allow-hotpath rare branch (~10% of NR2 probes); the copy must outlive the scheduled duplicate
		g.sim.AfterCall(sampleDelay(&g.rng), runProbeTask,
			g.newTask(TaskState{Kind: kindDup, Server: server, Payload: dup}))
	}
}

// The prober sends a probe whose connection the network dropped
// (netsim.Outcome.Dropped) at most probeAttempts times in all, each
// retry proberPatience after the last, and books a reaction that arrives
// later than proberPatience as a timeout. 10 s bounds the sub-10 s
// prober patience the paper contrasts with servers' 60 s defaults. Only
// impaired links drop or delay a probe, so ideal-link runs never reach
// either limit.
const (
	probeAttempts  = 3
	proberPatience = 10 * time.Second
)

// emit sends transmission number attempt of one probe and books its
// outcome. A payload byte-identical to its recording (replayed) goes out
// through Network.Replay, so the server learns that from the flow.
func (g *GFW) emit(server netsim.Endpoint, s *serverState, typ probe.Type, payload []byte, replayOf time.Time, replayed bool, attempt int) {
	if g.paused {
		return // a retry or NR2 duplicate scheduled before a pause
	}
	src := g.Pool.Source(g.sim.Now())
	var outcome netsim.Outcome
	if replayed {
		outcome = g.net.Replay(src.Endpoint(), server, payload, replayOf)
	} else {
		outcome = g.net.Connect(src.Endpoint(), server, payload, true, replayOf)
	}
	g.ProbesSent++
	g.mProbes.Inc()
	if !g.cfg.NoProbeLog {
		g.Log.Add(capture.Record{
			Time:     g.sim.Now(),
			SrcIP:    src.IP,
			SrcPort:  src.Port,
			DstIP:    server.IP,
			DstPort:  server.Port,
			ASN:      src.ASN,
			TTL:      src.TTL,
			IPID:     src.IPID,
			TSval:    src.TSval,
			Payload:  payload,
			Type:     typ,
			ReplayOf: replayOf, // zero unless typ is a replay
		})
	}
	if outcome.Blocked {
		return
	}
	// An impaired link may drop the probe's connection outright; the
	// prober learns nothing and retries the identical payload after its
	// patience expires, from a fresh pool source (§3.3: consecutive
	// probes rarely share a source address).
	if outcome.Dropped {
		g.ProbeDrops++
		g.mProbeDrops.Inc()
		if attempt < probeAttempts {
			g.ProbeRetries++
			g.mProbeRetries.Inc()
			g.sim.AfterCall(proberPatience, runProbeTask, g.newTask(TaskState{
				Kind: kindRetry, Server: server, Payload: payload, Typ: int(typ), ReplayOf: replayOf, Attempt: attempt + 1, Replayed: replayed,
			}))
		}
		return
	}
	// A reaction that an impaired link delivered past the prober's
	// patience was never observed: the prober had already recorded a
	// timeout and moved on.
	if outcome.Elapsed > proberPatience {
		g.ProbeTimeouts++
		g.mProbeTimeouts.Inc()
		outcome.Reaction = reaction.Timeout
		outcome.ResponseLen = 0
	}

	// Staged escalation: a data response to an R1/R2 replay proves the
	// server proxies replayed payloads; move to stage 2 (R3/R4/R5).
	if (typ == probe.R1 || typ == probe.R2) && outcome.Reaction == reaction.Data {
		s.stage = 2
	}

	// Blocking evidence comes in two kinds (§5.2.2, §6): data responses
	// to replays (near-proof of an unprotected proxy) and the immediate-
	// close fingerprints that the statistical analysis of random probes
	// accumulates. A server that only ever times out — OutlineVPN
	// v1.0.7's deliberate design — yields no fingerprint evidence.
	switch outcome.Reaction {
	case reaction.Data:
		s.dataResponses++
	case reaction.RST:
		s.fpScore += 0.5
	case reaction.FINACK:
		s.fpScore += 0.5
	}
	g.maybeBlock(server, s)
}

// maybeBlock applies the §6 blocking policy: both evidence kinds must be
// present, plus a "human factor" — most confirmed servers were still not
// blocked outside politically sensitive periods. This gate reproduces the
// paper's observation that the three blocked servers all ran
// ShadowsocksR or Shadowsocks-python (which serve replays AND show
// immediate-close fingerprints), while the replay-defended libev and the
// timeout-consistent OutlineVPN v1.0.7 survived months of probing.
func (g *GFW) maybeBlock(server netsim.Endpoint, s *serverState) {
	if s.blocked || s.dataResponses < minDataResponses || s.fpScore < g.cfg.BlockThreshold {
		return
	}
	if g.rng.Float64() >= g.sens {
		return
	}
	s.blocked = true
	s.blockGen++
	myGen := s.blockGen
	byIP := g.rng.Float64() < 0.5
	var ruleGen uint64
	if byIP {
		ruleGen = g.net.BlockIP(server.IP)
	} else {
		ruleGen = g.net.BlockPort(server)
	}
	// Unblocking happens without recheck probes, a week or more later
	// (§6: one server became unblocked more than a week after blocking,
	// with no probes observed in between; blockTTLHours and
	// blockTTLJitterHours encode exactly that rule). The unblock is
	// guarded twice: the network rule is cleared only if it is still the
	// one this block installed (another server sharing the IP, or a
	// later re-block, may have re-armed it), and the per-server blocked
	// flag is cleared only for this block's own generation.
	ttl := time.Duration(g.ttlHours * float64(time.Hour))
	if j := int(g.ttlJitter); j > 0 {
		ttl += time.Duration(g.rng.Intn(j)) * time.Hour
	}
	until := g.sim.Now().Add(ttl)
	g.BlockEvents = append(g.BlockEvents, BlockEvent{Time: g.sim.Now(), Server: server, ByIP: byIP, Until: until})
	g.mBlocks.Inc()
	g.sim.AtCall(until, runProbeTask, g.newTask(TaskState{
		Kind: kindUnblock, Server: server, ByIP: byIP, RuleGen: ruleGen, BlockGen: myGen,
	}))
}
