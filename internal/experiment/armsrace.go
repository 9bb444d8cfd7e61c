package experiment

import (
	"fmt"
	"strings"

	"sslab/internal/fleet"
	"sslab/internal/gfw"
	"sslab/internal/netsim"
	"sslab/internal/seedfork"
	"sslab/internal/stats"
)

// The arms-race experiment sweeps detector chains against a population
// whose servers span the circumvention arms race: paper-era Shadowsocks
// deployments, OpenVPN with and without tls-auth (Xue et al.'s
// fingerprinting target), obfs2/obfs4-style fully encrypted transports
// (Winter & Lindskog's Tor-bridge observations and the GFW's later
// fully-encrypted crackdown), and plain web servers as the
// false-positive yardstick. Each chain faces the same population under
// an independently forked seed; the report is the survival matrix —
// which deployments a censor running that chain actually takes down,
// at what latency, and at what collateral cost.

// ArmsRaceConfig parameterizes the detector-chain × protocol-mix sweep.
type ArmsRaceConfig struct {
	// Seed drives all randomness; each chain runs under an independent
	// fork, so adding a chain never perturbs the others.
	Seed int64
	// Users, UsersPerServer, Hours size each population run (defaults:
	// fleet's 100000 / 50 / 24).
	Users          int
	UsersPerServer int
	Hours          int
	// Shards space-shards each chain's population run (default:
	// fleet's 1). Like every Config field it changes report bytes; the
	// worker count executing the shards does not (see fleet.WithWorkers).
	Shards int `json:",omitempty"`
	// Chains are the detector chains to race (default DefaultChains).
	Chains [][]string `json:",omitempty"`
	// Mix is the server implementation mix (default ArmsRaceMix).
	Mix []fleet.ImplShare `json:",omitempty"`
	// GFW configures the censor. Its Detectors must be empty: Chains
	// names the chains to race.
	GFW gfw.Config
	// Impair optionally applies a link impairment profile.
	Impair *netsim.LinkProfile `json:",omitempty"`
}

// DefaultChains traces the censor's escalation: the paper's
// Shadowsocks-only detector, then OpenVPN fingerprinting, then the
// fully-encrypted heuristic, then the same with the TLS exemption that
// claws back false positives.
var DefaultChains = [][]string{
	{"shadowsocks"},
	{"shadowsocks", "openvpn"},
	{"shadowsocks", "openvpn", "fullyencrypted"},
	{"tlsexempt", "shadowsocks", "openvpn", "fullyencrypted"},
}

// ArmsRaceMix is the default multi-protocol server spread: a modern
// Shadowsocks core, OpenVPN and obfs deployments on both sides of the
// probe-resistance line, and a web share large enough to measure
// false-positive fractions with two digits.
var ArmsRaceMix = []fleet.ImplShare{
	{Impl: "libev-new", Weight: 0.20},
	{Impl: "sspython", Weight: 0.10},
	{Impl: "openvpn", Weight: 0.10},
	{Impl: "openvpn-auth", Weight: 0.10},
	{Impl: "obfs2", Weight: 0.10},
	{Impl: "obfs4", Weight: 0.10},
	{Impl: "web", Weight: 0.30},
}

// ArmsRaceRow is one chain's outcome against the shared population.
type ArmsRaceRow struct {
	// Name is the chain joined with "+" — the campaign flattener's row
	// key, so merged sweeps keep one row per chain.
	Name string
	// Chain is the canonical stage list.
	Chain []string

	// Population outcome.
	BlockedUserFraction float64
	EverBlockedUsers    int64
	Blocks              int
	Replacements        int64

	// Censor effort and timing.
	PayloadsRecorded int
	ProbesSent       int
	DetectionLatency stats.Summary

	// False positives: the fraction of innocuous-traffic users blocked,
	// and block events against innocuous servers.
	FalsePositiveFraction float64
	InnocuousBlocks       int64

	// PerImpl is the full survival breakdown for this chain.
	PerImpl []fleet.ImplStats
	// StageRecordings attributes recorded payloads to chain stages.
	StageRecordings []gfw.StageCount
}

// ArmsRaceReport is the experiment's report: one row per chain.
type ArmsRaceReport struct {
	Config ArmsRaceConfig
	Rows   []ArmsRaceRow
}

// ArmsRace runs every configured detector chain against independently
// seeded copies of the same population mix. The variadic options are
// fleet execution options (worker pools, metrics sinks) applied to
// every chain's run; they never change report bytes.
func ArmsRace(cfg ArmsRaceConfig, opts ...fleet.Option) (*ArmsRaceReport, error) {
	if err := cfg.GFW.Validate(); err != nil {
		return nil, fmt.Errorf("armsrace: %w", err)
	}
	if len(cfg.GFW.Detectors) > 0 {
		return nil, fmt.Errorf("armsrace: GFW.Detectors must be empty; set Chains to choose the chains to race, got %v", cfg.GFW.Detectors)
	}
	chains := cfg.Chains
	if len(chains) == 0 {
		chains = DefaultChains
	}
	mix := cfg.Mix
	if len(mix) == 0 {
		mix = ArmsRaceMix
	}

	rep := &ArmsRaceReport{Config: cfg}
	for i, chain := range chains {
		fcfg := fleet.Config{
			Seed:           seedfork.Fork(cfg.Seed, "armsrace.chain", int64(i)),
			Users:          cfg.Users,
			UsersPerServer: cfg.UsersPerServer,
			Hours:          cfg.Hours,
			Shards:         cfg.Shards,
			Mix:            mix,
			GFW:            cfg.GFW,
			Impair:         cfg.Impair,
		}
		fcfg.GFW.Detectors = chain
		fr, err := fleet.Run(fcfg, opts...)
		if err != nil {
			return nil, fmt.Errorf("armsrace chain %v: %w", chain, err)
		}

		row := ArmsRaceRow{
			Name:                strings.Join(chain, "+"),
			Chain:               chain,
			BlockedUserFraction: fr.BlockedUserFraction,
			EverBlockedUsers:    fr.EverBlockedUsers,
			Blocks:              fr.Blocks,
			Replacements:        fr.Replacements,
			PayloadsRecorded:    fr.PayloadsRecorded,
			ProbesSent:          fr.ProbesSent,
			DetectionLatency:    fr.DetectionLatency,
			PerImpl:             fr.PerImpl,
			StageRecordings:     fr.StageRecordings,
		}
		var innocUsers, innocEver int64
		for _, im := range fr.PerImpl {
			if fleet.IsInnocuous(im.Name) {
				innocUsers += im.Users
				innocEver += im.EverBlockedUsers
				row.InnocuousBlocks += im.Blocks
			}
		}
		if innocUsers > 0 {
			row.FalsePositiveFraction = float64(innocEver) / float64(innocUsers)
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// Render implements Report: a survival matrix (implementations ×
// chains) plus per-chain cost and false-positive lines.
func (r *ArmsRaceReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Arms race: %d detector chains × multi-protocol population (seed %d)\n",
		len(r.Rows), r.Config.Seed)
	if len(r.Rows) == 0 {
		return b.String()
	}

	fmt.Fprintf(&b, "\n  %% of users ever blocked, by server implementation:\n")
	fmt.Fprintf(&b, "  %-13s", "impl")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, " %20s", row.Name)
	}
	b.WriteString("\n")
	for k, im := range r.Rows[0].PerImpl {
		fmt.Fprintf(&b, "  %-13s", im.Name)
		for _, row := range r.Rows {
			fmt.Fprintf(&b, " %19.2f%%", 100*row.PerImpl[k].Fraction)
		}
		b.WriteString("\n")
	}

	b.WriteString("\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-45s blocked %5.2f%% of users, FP %5.2f%%, probes %d, median latency %s\n",
			row.Name, 100*row.BlockedUserFraction, 100*row.FalsePositiveFraction,
			row.ProbesSent, stats.FormatSeconds(row.DetectionLatency.P50))
	}
	return b.String()
}

// armsraceRunner registers the sweep under the "armsrace" name. Fast
// scale is four chains over a 1200-user, 6-hour population per chain.
var armsraceRunner = runner[ArmsRaceConfig]{
	name: "armsrace",
	desc: "detector chains × protocol mixes: survival matrix, latency, false positives",
	config: func(seed int64, full bool) ArmsRaceConfig {
		cfg := ArmsRaceConfig{Seed: seed}
		if !full {
			cfg.Users = 1200
			cfg.UsersPerServer = 40
			cfg.Hours = 6
			cfg.GFW = gfw.Config{PoolSize: 2000}
		}
		return cfg
	},
	run: func(cfg ArmsRaceConfig, workers int) (Report, error) {
		return ArmsRace(cfg, fleet.WithWorkers(workers))
	},
}
