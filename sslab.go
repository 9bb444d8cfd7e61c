// Package sslab is a from-scratch Go reproduction of "How China Detects
// and Blocks Shadowsocks" (IMC 2020): a complete Shadowsocks protocol
// stack (both the stream-cipher and AEAD constructions), behavioural
// emulators of the server implementations the paper studied, the §5.1
// prober simulator, and a calibrated behavioural model of the Great
// Firewall's passive detector, staged active-probing infrastructure, and
// blocking module — all wired to a deterministic discrete-event network
// simulator so every table and figure in the paper can be regenerated
// offline.
//
// This root package is the stable facade: it aliases the library's main
// types so downstream users interact with one import. The implementation
// lives in internal/ packages; see DESIGN.md for the system inventory and
// EXPERIMENTS.md for paper-versus-measured results.
//
// Quick start (run a real proxy):
//
//	srv, _ := sslab.ListenServer("127.0.0.1:8388", sslab.ServerConfig{
//	    Method: "chacha20-ietf-poly1305", Password: "secret",
//	})
//	cli, _ := sslab.NewClient(sslab.ClientConfig{
//	    Server: srv.Addr().String(), Method: "chacha20-ietf-poly1305", Password: "secret",
//	})
//	conn, _ := cli.Dial("example.com:80")
//
// Reproduce the paper (see also cmd/gfwsim):
//
//	report, _ := sslab.RunShadowsocksExperiment(sslab.ShadowsocksConfig{Seed: 1})
//	fmt.Print(report.Render())
package sslab

import (
	"sslab/internal/detector"
	"sslab/internal/experiment"
	"sslab/internal/fleet"
	"sslab/internal/gfw"
	"sslab/internal/metrics"
	"sslab/internal/netsim"
	"sslab/internal/probesim"
	"sslab/internal/reaction"
	"sslab/internal/region"
	"sslab/internal/ssclient"
	"sslab/internal/ssserver"
)

// Version identifies the library release.
const Version = "1.0.0"

// Server-side API.
type (
	// ServerConfig configures a runnable Shadowsocks server. Its one
	// timeout, HandshakeTimeout (default 60 s), bounds the wait for a
	// connection's first protocol data.
	ServerConfig = ssserver.Config
	// Server is a running Shadowsocks proxy server with a behaviour profile.
	Server = ssserver.Server
	// Profile selects which implementation's behaviour a server emulates.
	Profile = reaction.Profile
)

// Client-side API.
type (
	// ClientConfig configures a Shadowsocks client.
	ClientConfig = ssclient.Config
	// Client tunnels connections through a Shadowsocks server.
	Client = ssclient.Client
)

// Censor model and simulation API.
type (
	// GFW is the Great Firewall behavioural model.
	GFW = gfw.GFW
	// GFWConfig tunes the censor model.
	GFWConfig = gfw.Config
	// Sim is the discrete-event virtual clock.
	Sim = netsim.Sim
	// Network is the simulated network the GFW sits on.
	Network = netsim.Network
	// Endpoint names one simulated host address (IP, port) — the key the
	// network, the censor's caches and the blocking rules all share.
	Endpoint = netsim.Endpoint
	// Metrics is the deterministic counter/gauge/histogram registry the
	// simulator, censor and servers report into.
	Metrics = metrics.Registry
)

// Impairment and options API. A LinkProfile describes a degraded path
// (latency, jitter, i.i.d. loss, retries); WithImpairment installs one
// on every directed link. All other knobs follow the same
// functional-options pattern (see CONTRIBUTING.md).
type (
	// LinkProfile describes the impairments of every directed link.
	LinkProfile = netsim.LinkProfile
	// RetryPolicy bounds transport-level retransmission on a link.
	RetryPolicy = netsim.RetryPolicy
	// SimOption configures NewSim.
	SimOption = netsim.Option
	// NetworkOption configures NewNetwork.
	NetworkOption = netsim.NetworkOption
	// CensorEnv names the simulator and network a censor attaches to.
	CensorEnv = gfw.Env
	// CensorOption configures NewCensor.
	CensorOption = gfw.Option
)

// Prober-simulator API (§5.1).
type (
	// TCPProber probes live servers over TCP.
	TCPProber = probesim.TCPProber
	// ReactionMatrix is one Figure 10 row.
	ReactionMatrix = probesim.Matrix
)

// Experiment harness API.
type (
	// ShadowsocksConfig scales the §3.1 experiment.
	ShadowsocksConfig = experiment.ShadowsocksConfig
	// SinkConfig scales the §4.1 random-data experiments.
	SinkConfig = experiment.SinkConfig
	// BrdgrdConfig scales the §7.1 shaping experiment.
	BrdgrdConfig = experiment.BrdgrdConfig
	// MatrixConfig scales the §5.1 reaction-matrix experiment.
	MatrixConfig = experiment.MatrixConfig
	// BlockingConfig scales the §6 blocking-module experiment.
	BlockingConfig = experiment.BlockingConfig
	// FPStudyConfig scales the §9 false-positive extension study.
	FPStudyConfig = experiment.FPStudyConfig
	// BanStudyConfig scales the §3.3 prober-IP-banning study.
	BanStudyConfig = experiment.BanStudyConfig
	// MimicStudyConfig scales the TLS-framing (§8 mechanism) study.
	MimicStudyConfig = experiment.MimicStudyConfig
	// ProbeCostConfig scales the §5.2.2 probes-to-confirmation study.
	ProbeCostConfig = experiment.ProbeCostConfig
	// RobustnessConfig scales the impairment-robustness study (which
	// paper observations survive a lossy, jittery path).
	RobustnessConfig = experiment.RobustnessConfig
	// ArmsRaceConfig scales the detector-chain × protocol-mix sweep.
	ArmsRaceConfig = experiment.ArmsRaceConfig
)

// Population-scale fleet API. FleetConfig is the science — everything
// in it, including the Shards space partition, may change report
// bytes — while FleetOptions configure execution only (worker pools,
// metrics sinks) and are guaranteed report-invariant: equal configs
// give byte-identical FleetReports under any option combination.
type (
	// FleetConfig sizes and seeds a population run (users, servers,
	// virtual hours, implementation mix, censor config, shard count).
	FleetConfig = fleet.Config
	// FleetReport is the population-scale reduction of one run:
	// blocked-user curves, detection latencies, server lifetimes,
	// per-implementation survival. Reports from shards or repeated runs
	// fold together with its Merge method.
	FleetReport = fleet.Report
	// FleetOption configures fleet execution (see WithWorkers,
	// WithFleetMetrics).
	FleetOption = fleet.Option
	// ImplShare is one entry of a fleet's server implementation mix.
	ImplShare = fleet.ImplShare
)

// Spatiotemporal censorship layer: a fleet partitioned into named
// regions, each under its own censor with its own timed policy
// schedule, plus the Engine API for staged execution and snapshots.
type (
	// RegionTopology maps a fleet's servers and users onto named
	// censorship regions (set FleetConfig.Regions). A one-region
	// topology with no schedule reproduces the non-regional engine
	// byte for byte.
	RegionTopology = region.Topology
	// Region is one named region: a server-space weight, an optional
	// censor-config override, and an optional policy schedule.
	Region = region.Region
	// RegionSchedule is a region's ordered timed policy events.
	RegionSchedule = region.Schedule
	// RegionEvent is one scheduled policy change (sensitivity step,
	// block-TTL change, probing pause/resume).
	RegionEvent = region.Event
	// RegionStats is one region's row of a FleetReport's PerRegion
	// breakdown.
	RegionStats = fleet.RegionStats
	// FleetEngine is a fleet run held open: advance with RunTo,
	// serialize with Snapshot, reduce with Report.
	FleetEngine = fleet.Engine
	// SpatioConfig scales the regional-gradient × schedule-shape sweep.
	SpatioConfig = experiment.SpatioConfig
)

// ErrUnmergeableReport marks a FleetReport that lost its backing
// sketches (e.g. in a JSON round trip) and therefore cannot Merge.
var ErrUnmergeableReport = fleet.ErrUnmergeableReport

// Implementation profiles the paper studied, plus the hardened reference.
var (
	LibevOld   = reaction.LibevOld
	LibevNew   = reaction.LibevNew
	Outline106 = reaction.Outline106
	Outline107 = reaction.Outline107
	Outline110 = reaction.Outline110
	Hardened   = reaction.Hardened
	SSPython   = reaction.SSPython
	SSR        = reaction.SSR
)

// NewServer builds a server without binding a socket.
func NewServer(cfg ServerConfig) (*Server, error) { return ssserver.New(cfg) }

// ListenServer binds addr and serves in the background.
func ListenServer(addr string, cfg ServerConfig) (*Server, error) {
	return ssserver.Listen(addr, cfg)
}

// NewClient builds a Shadowsocks client.
func NewClient(cfg ClientConfig) (*Client, error) { return ssclient.New(cfg) }

// NewSim creates a virtual-clock simulator starting at the paper's epoch.
func NewSim(opts ...SimOption) *Sim { return netsim.NewSim(opts...) }

// NewNetwork creates a simulated network on sim.
func NewNetwork(sim *Sim, opts ...NetworkOption) *Network { return netsim.NewNetwork(sim, opts...) }

// NewMetrics creates an empty metrics registry, for use with WithMetrics.
func NewMetrics() *Metrics { return metrics.New() }

// WithSeed sets the simulator's root seed. Per-link impairment streams
// fork from it, so equal seeds give bit-identical runs regardless of
// worker count or host registration order.
func WithSeed(seed int64) SimOption { return netsim.WithSeed(seed) }

// WithMetrics points the simulator at a caller-owned registry so one
// registry can aggregate several simulations.
func WithMetrics(m *Metrics) SimOption { return netsim.WithMetrics(m) }

// WithImpairment applies profile to every directed link. The zero
// profile leaves links ideal.
func WithImpairment(profile LinkProfile) NetworkOption { return netsim.WithDefaultLink(profile) }

// WithCensorConfig replaces the censor's whole configuration; later
// options still apply on top.
func WithCensorConfig(cfg GFWConfig) CensorOption { return gfw.WithConfig(cfg) }

// WithDetectors selects the censor's detector chain by stage name, each
// of DetectorNames at most once; chain order does not affect verdicts.
func WithDetectors(names ...string) CensorOption {
	return func(c *GFWConfig) { c.Detectors = names }
}

// DetectorNames returns the four detector stage names, sorted.
func DetectorNames() []string { return detector.Names() }

// NewCensor attaches a censor model to a simulated environment and
// registers it on the network. It panics on a configuration that
// GFWConfig.Validate refuses, such as an unknown or repeated detector
// stage: a typo should fail the run, not quietly weaken the censor.
func NewCensor(env CensorEnv, opts ...CensorOption) *GFW {
	g := gfw.New(env, opts...)
	env.Net.AddMiddlebox(g)
	return g
}

// RunShadowsocksExperiment reproduces §3.1 (Figures 2–7, Tables 2–3).
func RunShadowsocksExperiment(cfg ShadowsocksConfig) (*experiment.ShadowsocksReport, error) {
	return experiment.ShadowsocksExperiment(cfg)
}

// RunSinkExperiments reproduces §4.1 (Table 4, Figures 8–9).
func RunSinkExperiments(cfg SinkConfig) (*experiment.SinkReport, error) {
	return experiment.SinkExperiments(cfg)
}

// RunBrdgrdExperiment reproduces §7.1 (Figure 11).
func RunBrdgrdExperiment(cfg BrdgrdConfig) (*experiment.BrdgrdReport, error) {
	return experiment.BrdgrdExperiment(cfg)
}

// RunReactionMatrices reproduces §5 (Figures 10a/10b, Table 5).
func RunReactionMatrices(cfg MatrixConfig) (*experiment.MatrixReport, error) {
	return experiment.ReactionMatrices(cfg)
}

// RunBlockingExperiment reproduces §6 (which implementations get blocked,
// by port or by IP, and what clients observe).
func RunBlockingExperiment(cfg BlockingConfig) (*experiment.BlockingReport, error) {
	return experiment.BlockingExperiment(cfg)
}

// RunFPStudy runs the §9 extension study: probing exposure of different
// traffic classes under the length+entropy detector.
func RunFPStudy(cfg FPStudyConfig) (*experiment.FPStudyReport, error) {
	return experiment.FPStudy(cfg)
}

// RunBanStudy quantifies §3.3's claim that banning prober IPs cannot stop
// active probing.
func RunBanStudy(cfg BanStudyConfig) (*experiment.BanStudyReport, error) {
	return experiment.BanStudy(cfg)
}

// RunMimicStudy compares plain and TLS-framed deployments under censors
// with and without a TLS whitelist (the §8 application-fronting mechanism).
func RunMimicStudy(cfg MimicStudyConfig) (*experiment.MimicStudyReport, error) {
	return experiment.MimicStudy(cfg)
}

// RunProbeCost measures probes-to-confirmation per implementation —
// §5.2.2's Tor-versus-Shadowsocks observation as a sequential test.
func RunProbeCost(cfg ProbeCostConfig) (*experiment.ProbeCostReport, error) {
	return experiment.ProbeCost(cfg)
}

// RunRobustness sweeps a loss × jitter grid of compact §3.1/§4 reruns
// and reports which headline observations survive an impaired path.
func RunRobustness(cfg RobustnessConfig) (*experiment.RobustnessReport, error) {
	return experiment.Robustness(cfg)
}

// RunArmsRace races detector chains against a multi-protocol server
// population: per-chain blocked-user fractions, detection latency, and
// false positives on innocuous web traffic. The variadic options are
// fleet execution options applied to every chain's population run.
func RunArmsRace(cfg ArmsRaceConfig, opts ...FleetOption) (*experiment.ArmsRaceReport, error) {
	return experiment.ArmsRace(cfg, opts...)
}

// RunFleet executes a population-scale fleet run: Config.Shards
// space-sharded sub-simulations (each with its own censor, network,
// simulator and RNG streams) on a bounded worker pool, merged into
// one FleetReport. The report is a function of cfg alone — WithWorkers
// only changes wall-clock time.
func RunFleet(cfg FleetConfig, opts ...FleetOption) (*FleetReport, error) {
	return fleet.Run(cfg, opts...)
}

// NewFleetEngine builds a fleet run held open for staged execution:
// RunTo advances virtual time, Snapshot serializes the engine at a
// quiescent boundary, Report reduces the finished run. Driving an
// engine to the end in one step is RunFleet, byte for byte.
func NewFleetEngine(cfg FleetConfig, opts ...FleetOption) (*FleetEngine, error) {
	return fleet.NewEngine(cfg, opts...)
}

// RestoreFleetEngine rebuilds an engine from Snapshot bytes. A
// restored run's remaining virtual time reports byte-identically to an
// uninterrupted run; options configure execution of the restored
// engine and need not match the original run's.
func RestoreFleetEngine(data []byte, opts ...FleetOption) (*FleetEngine, error) {
	return fleet.Restore(data, opts...)
}

// RunSpatiotemporal sweeps policy-schedule shapes over a regional
// sensitivity gradient: per-region blocked-user fractions, detection
// latencies and server lifetimes under each regime. The variadic
// options are fleet execution options applied to every run.
func RunSpatiotemporal(cfg SpatioConfig, opts ...FleetOption) (*experiment.SpatioReport, error) {
	return experiment.Spatiotemporal(cfg, opts...)
}

// WithWorkers bounds the worker pool executing a fleet run's shards
// (default: all cores, clamped to the shard count). Execution option:
// never changes report bytes.
func WithWorkers(n int) FleetOption { return fleet.WithWorkers(n) }

// WithFleetMetrics folds a fleet run's engine metrics (every shard's
// simulator, network, censor and fleet instruments) into m in shard
// order. Execution option: never changes report bytes. (WithMetrics is
// the analogous simulator-level option.)
func WithFleetMetrics(m *Metrics) FleetOption { return fleet.WithMetrics(m) }

// Probe sends one payload to a live server and classifies the reaction
// the way the GFW would.
func Probe(addr string, payload []byte) (reaction.Reaction, error) {
	p := &probesim.TCPProber{Addr: addr}
	return p.Probe(payload, timeZero)
}

var timeZero = netsim.Epoch
