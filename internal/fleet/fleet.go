// Package fleet is the population-scale workload engine: it drives the
// per-flow censor model with 10⁵–10⁶ concurrent simulated users and
// measures what the paper's detection pipeline does to a *population* —
// blocked-user curves over virtual time, server detection latencies,
// prober load, and the lifetime of servers that operators replace after
// blocking.
//
// The engine scales by keeping per-user cost at O(bytes of state), not
// O(goroutine): a user is ~24 bytes (an inline SplitMix64 PRNG state, a
// server index, a diurnal phase and two flags) in one flat slice, every
// wake-up the diurnal curve keeps is one closure-free event on its
// unit's netsim heap (the candidates it thins are drawn and counted
// without becoming events), first packets are synthesized into one
// reused buffer, and every output is a streaming sketch or bucketed
// counter (internal/stats) — no per-flow record is ever materialized.
//
// Parallelism: the population is partitioned into Config.Shards
// space-sharded sub-simulations — users pinned to disjoint server +
// censor shards are causally independent, so each shard runs
// single-threaded in virtual time on its own simulator, network,
// censor and RNG streams, and finished shard Reports merge through
// order-independent reductions (Report.Merge). The worker pool
// executing the shards is sized by WithWorkers and is pure execution
// policy: the shard plan is fixed by Config, so any worker count
// reproduces the -workers 1 report byte-for-byte.
//
// Determinism: all randomness forks off Config.Seed via seedfork.
// With one shard (the default) the stream labels are the historical
// "fleet.gfw", "fleet.trafficgen", "fleet.mix" and ("fleet.user", i);
// with more, each shard forks its parent from ("fleet.shard", s) and
// feeds the same labels under it (user labels carry global indices).
// The per-server implementation mix is always drawn from one global
// "fleet.mix" stream, so the population's composition is independent
// of the shard count.
package fleet

import (
	"fmt"
	"math"
	"time"

	"sslab/internal/gfw"
	"sslab/internal/metrics"
	"sslab/internal/netsim"
	"sslab/internal/reaction"
	"sslab/internal/region"
	"sslab/internal/seedfork"
	"sslab/internal/sscrypto"
	"sslab/internal/stats"
	"sslab/internal/trafficgen"
)

// Config tunes a fleet run. Zero values select the population-scale
// defaults; the registry's fast preset shrinks Users and Hours.
type Config struct {
	// Seed drives all of the run's randomness.
	Seed int64
	// Users is the population size (default 100000).
	Users int
	// UsersPerServer is how many users share one Shadowsocks server
	// (default 50).
	UsersPerServer int
	// Hours is the virtual experiment length (default 24).
	Hours int
	// PeakFlowsPerHour is a user's mean flow rate at the diurnal peak
	// (default 2). Wake-ups arrive as a Poisson process at this rate and
	// are thinned by the diurnal activity curve.
	PeakFlowsPerHour float64
	// ActivityFloor is the overnight activity level as a fraction of the
	// 21:00 peak (default 0.15). Setting it to 1 disables the diurnal
	// cycle entirely (constant activity — used by the golden cross-check).
	ActivityFloor float64
	// BrowseShare is the fraction of users running the Firefox/Alexa
	// browsing workload; the rest run the paper's curl fetch loop
	// (default 0.3).
	BrowseShare float64
	// ReplaceAfterMin is how many minutes after its users first observe
	// blocking a server operator re-provisions on a fresh IP (default
	// 180). The GFW starts over on the new endpoint, as in reality.
	ReplaceAfterMin int
	// BucketMin is the width, in minutes, of the report's virtual-time
	// series buckets (default 15).
	BucketMin int
	// Shards partitions the population into that many space-sharded
	// sub-simulations (default 1): each shard owns a contiguous slice of
	// servers, their users, and its own censor, network, simulator and
	// RNG streams forked under ("fleet.shard", s). Shards is science
	// config — it changes which RNG streams drive the population, so it
	// changes report bytes — whereas the worker count executing the
	// shards is an execution option (WithWorkers) and never does. Values
	// above the server count are clamped. Shards = 1 reproduces the
	// unsharded engine byte-for-byte.
	Shards int `json:",omitempty"`
	// Mix is the server implementation mix, drawn per server. Defaults
	// to DefaultMix (the paper-era version spread of §6; only the
	// replay-serving shadowsocks-python and ShadowsocksR deployments can
	// accumulate enough evidence to be blocked).
	Mix []ImplShare `json:",omitempty"`
	// GFW configures the censor. The fleet overrides two defaults, here
	// and in each region's override: Sensitivity 0 becomes 0.25 (a
	// population run without blocking measures nothing; set a negative
	// Sensitivity to model the probe-but-never-block censor), and the
	// probe capture log is disabled (nothing reads per-probe records at
	// this scale).
	GFW gfw.Config
	// Regions optionally partitions the population into named
	// censorship regions, each with its own censor configuration and
	// timed policy schedule (see internal/region). Nil — and any
	// one-region topology with an empty schedule — reproduces the
	// non-regional engine byte-for-byte. With two or more regions the
	// Report additionally carries PerRegion rows.
	Regions *region.Topology `json:",omitempty"`
	// Impair optionally applies a link impairment profile to every link.
	Impair *netsim.LinkProfile `json:",omitempty"`
}

// ImplShare is one entry of the server implementation mix.
type ImplShare struct {
	// Impl names an implementation: a Shadowsocks flavor (libev-old,
	// libev-new, outline, sspython, ssr), an OpenVPN deployment (openvpn,
	// openvpn-auth), an obfs-style transport (obfs2, obfs4), or the
	// innocuous direct-web baseline (web).
	Impl string
	// Weight is the relative share of servers running Impl.
	Weight float64
}

// DefaultMix is the default server implementation spread: mostly
// maintained shadowsocks-libev and Outline deployments, plus the
// shadowsocks-python and ShadowsocksR long tail the paper found on the
// servers that actually got blocked (§6).
var DefaultMix = []ImplShare{
	{Impl: "libev-old", Weight: 0.15},
	{Impl: "libev-new", Weight: 0.30},
	{Impl: "outline", Weight: 0.20},
	{Impl: "sspython", Weight: 0.20},
	{Impl: "ssr", Weight: 0.15},
}

// protoKind selects a server's wire protocol family.
type protoKind uint8

const (
	// protoSS is classic Shadowsocks: first packets are random-looking
	// wire form of a tunneled workload; probes hit the reaction engine.
	protoSS protoKind = iota
	// protoOpenVPN is OpenVPN over TCP: the first packet is a client
	// hard reset; a plain server answers well-formed resets (probeable),
	// a tls-auth server drops everything unauthenticated.
	protoOpenVPN
	// protoObfs is an obfs-style fully encrypted transport: obfs2-era
	// servers accept replays and close loudly on garbage, obfs4-style
	// servers time every probe out.
	protoObfs
	// protoWeb is an ordinary web server — innocuous traffic that should
	// never be blocked; any block against it is a false positive.
	protoWeb
)

// implementations maps mix names to protocol family, reaction profile
// (Shadowsocks only), workload override and probe posture.
var implementations = map[string]struct {
	proto   protoKind
	profile reaction.Profile
	method  string
	wl      trafficgen.Workload // workload override for non-SS protocols
	silent  bool                // drops every probe (tls-auth / obfs4)
}{
	"libev-old": {proto: protoSS, profile: reaction.LibevOld, method: "aes-256-cfb"},
	"libev-new": {proto: protoSS, profile: reaction.LibevNew, method: "aes-256-gcm"},
	"outline":   {proto: protoSS, profile: reaction.Outline107, method: "chacha20-ietf-poly1305"},
	"sspython":  {proto: protoSS, profile: reaction.SSPython, method: "aes-256-cfb"},
	"ssr":       {proto: protoSS, profile: reaction.SSR, method: "aes-256-ctr"},

	"openvpn":      {proto: protoOpenVPN, wl: trafficgen.OpenVPNTCP},
	"openvpn-auth": {proto: protoOpenVPN, wl: trafficgen.OpenVPNTCPAuth, silent: true},
	"obfs2":        {proto: protoObfs, wl: trafficgen.ObfsFirst},
	"obfs4":        {proto: protoObfs, wl: trafficgen.ObfsFirst, silent: true},
	"web":          {proto: protoWeb, wl: trafficgen.WebDirect},
}

// IsInnocuous reports whether a mix implementation name denotes traffic
// that should never be blocked — blocks against it are false positives.
func IsInnocuous(impl string) bool {
	return implementations[impl].proto == protoWeb
}

func (c Config) withDefaults() Config {
	if c.Users == 0 {
		c.Users = 100000
	}
	if c.UsersPerServer == 0 {
		c.UsersPerServer = 50
	}
	if c.Hours == 0 {
		c.Hours = 24
	}
	if c.PeakFlowsPerHour == 0 {
		c.PeakFlowsPerHour = 2
	}
	if c.ActivityFloor == 0 {
		c.ActivityFloor = 0.15
	}
	if c.BrowseShare == 0 {
		c.BrowseShare = 0.3
	}
	if c.ReplaceAfterMin == 0 {
		c.ReplaceAfterMin = 180
	}
	if c.BucketMin == 0 {
		c.BucketMin = 15
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if len(c.Mix) == 0 {
		c.Mix = DefaultMix
	}
	if c.GFW.Sensitivity == 0 {
		c.GFW = censorConfig(c.GFW) // a negative Sensitivity is reported as set
	}
	return c
}

// user is the entire per-user state — kept to a couple dozen bytes so a
// million-user population costs tens of megabytes, not a goroutine and
// stack each. rng is an inline SplitMix64 state: the user's private
// randomness without a *rand.Rand allocation.
type user struct {
	rng         uint64
	server      int32
	phaseMin    int16 // personal diurnal phase jitter, ±90 minutes
	wl          uint8 // trafficgen.Workload
	blocked     bool  // currently cut off from its server
	everBlocked bool
}

// splitmix advances a SplitMix64 state and returns the next value.
func splitmix(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// f64 draws uniform [0,1) from the user's inline PRNG.
func (u *user) f64() float64 {
	return float64(splitmix(&u.rng)>>11) / (1 << 53)
}

// serverRec is the per-server state: the long-lived host plus the
// current endpoint epoch (replacement moves the host to a fresh IP).
type serverRec struct {
	host      *serverHost
	ep        netsim.Endpoint
	spec      sscrypto.Spec
	wl        uint8 // workload override for non-SS protocols
	proto     protoKind
	implIdx   int32 // index into Fleet.implNames
	activated time.Time
	firstFail time.Time // first user-observed blocked flow this epoch
	replacing bool
}

// epoch records one endpoint activation: when, and which local server
// owned it (for per-implementation block attribution, and so a
// snapshot restore can re-bind every historical endpoint to its host —
// old endpoints keep serving probes after a replacement).
type epoch struct {
	at  time.Time
	srv int32
}

// userArg / srvArg are the pre-allocated closure-free scheduling
// arguments (one each per user/server, so steady state allocates
// nothing).
type userArg struct {
	f   *Fleet
	idx int32
}

type srvArg struct {
	f   *Fleet
	idx int32
}

// Fleet is one shard of a population run in progress — with
// Config.Shards = 1 (the default), the whole run. Construct implicitly
// via Run.
type Fleet struct {
	cfg Config
	sim *netsim.Sim
	net *netsim.Network
	gfw *gfw.GFW

	// Shard identity: the shard's seedfork parent (cfg.Seed itself when
	// Shards == 1, so the single-shard engine reproduces the historical
	// RNG streams exactly) and the global server range [serverLo,
	// serverHi) this shard owns. Users follow their servers; global
	// user/server indices keep seed labels and endpoint addresses
	// identical to the unsharded engine's.
	seed     int64
	serverLo int
	serverHi int
	userLo   int
	userHi   int

	// Region identity: which topology region this unit belongs to, and
	// the region's policy schedule. policyNext is the index of the next
	// unapplied schedule event (the schedule's entire pending state —
	// events chain one AtCall at a time through parg).
	regionIdx  int
	regionName string
	schedule   region.Schedule
	parg       policyArg
	policyNext int

	// restoring suppresses build's initial event scheduling: a restored
	// unit re-arms its pending events from the snapshot instead.
	restoring bool

	users   []user
	uargs   []userArg
	sargs   []srvArg
	clients []netsim.Endpoint
	servers []serverRec
	// epochs records each endpoint's activation time and implementation,
	// so BlockEvents resolve to detection latencies and per-impl blocks
	// after the run (O(servers + replacements) memory).
	epochs map[netsim.Endpoint]epoch

	tg      *trafficgen.Generator
	scratch []byte
	end     time.Time
	// span is end − Epoch: the wake path keeps its candidate times as
	// offsets from Epoch and compares them with span.
	span time.Duration
	// curve is the engine's diurnal activity table, shared read-only by
	// its units.
	curve *activityTable

	meanGap      time.Duration
	replaceAfter time.Duration
	bucket       time.Duration

	// Streaming aggregates — the only run-long measurement state.
	flows        int64
	wakeups      int64
	blockedNow   int64
	everBlocked  int64
	replacements int64
	nextServerIP int

	flowsTS      *stats.TimeSeries
	latencies    *stats.Quantile // block time − endpoint activation, seconds
	lifetimes    *stats.Quantile // activation → first observed failure, seconds
	blockedCurve []int64         // users currently cut off, sampled per bucket
	probeLoad    []int64         // probes sent per bucket
	lastProbes   int

	// Per-implementation accounting, indexed by implNames position (mix
	// order, so report rows are deterministic without sorting).
	implNames   []string
	implUsers   []int64
	implServers []int64
	implEver    []int64 // users ever blocked, by their server's impl

	mFlows        *metrics.Counter
	mWakeups      *metrics.Counter
	mBlockedUsers *metrics.Gauge
	mReplacements *metrics.Counter
}

// bindMetrics attaches the fleet's instruments to the sim's registry.
func (f *Fleet) bindMetrics() {
	f.mFlows = f.sim.Metrics.Counter("fleet.flows")
	f.mWakeups = f.sim.Metrics.Counter("fleet.wakeups")
	f.mBlockedUsers = f.sim.Metrics.Gauge("fleet.blocked_users")
	f.mReplacements = f.sim.Metrics.Counter("fleet.replacements")
}

// activityAt is the diurnal curve: a smooth cosine peaking at 21:00,
// floored at floor, at minute-of-day m. The cosine is periodic in the
// day, so a negative m (a phase jitter reaching before midnight) is
// harmless.
func activityAt(m int64, floor float64) float64 {
	h := float64(m) / 60
	shape := 0.5 * (1 + math.Cos(2*math.Pi*(h-21)/24))
	return floor + (1-floor)*shape
}

// activityTable holds activityAt for every minute-of-day the wake path
// asks for: m = (minutes since Epoch + phase) % 1440, with the phase in
// [−90, 90], lies in [−90, 1439], and entry m+90 holds it.
type activityTable [24*60 + 90]float64

// newActivityTable fills the table from activityAt, so a lookup returns
// the formula's value bit for bit.
func newActivityTable(floor float64) *activityTable {
	var t activityTable
	for i := range t {
		t[i] = activityAt(int64(i)-90, floor)
	}
	return &t
}

// activity is the diurnal curve at offset c from Epoch for a user with
// personal phase jitter phaseMin.
func (f *Fleet) activity(c time.Duration, phaseMin int16) float64 {
	return f.curve[(int64(c/time.Minute)+int64(phaseMin))%(24*60)+90]
}

// expGap draws the user's next wake-up gap: exponential with mean
// meanGap (Poisson arrivals at the peak rate; the diurnal curve thins).
func (f *Fleet) expGap(u *user) time.Duration {
	return time.Duration(-math.Log1p(-u.f64()) * float64(f.meanGap))
}

// runUserWake is the AtCall trampoline for user wake-ups.
func runUserWake(x any) {
	a := x.(*userArg)
	a.f.wake(a)
}

// wake is the per-user hot path: draw this candidate's gap and accept
// values, arm the user's next kept wake-up, then (if the diurnal curve
// keeps this one) emit one flow and account its outcome. Arming first
// keeps the next wake-up ahead, in schedule order, of anything the flow
// schedules. Steady state allocates nothing: the payload is built in
// f.scratch and the flow lives in the network's arena.
//
//sslab:hotpath
func (f *Fleet) wake(a *userArg) {
	u := &f.users[a.idx]
	now := f.sim.Now()
	c := now.Sub(netsim.Epoch)
	f.wakeups++
	f.mWakeups.Inc()

	gap := f.expGap(u)
	kept := u.f64() < f.activity(c, u.phaseMin)
	f.armNext(a, u, c, gap)
	if !kept {
		return
	}

	srv := &f.servers[u.server]
	f.scratch = f.tg.AppendProtocolFirstPacket(f.scratch[:0], srv.spec, trafficgen.Workload(u.wl))
	out := f.net.Connect(f.clients[a.idx], srv.ep, f.scratch, false, time.Time{})
	f.flows++
	f.mFlows.Inc()
	f.flowsTS.Add(c, 1)

	if out.Blocked {
		f.onBlockedFlow(u, srv, now)
	} else if u.blocked {
		u.blocked = false
		f.blockedNow--
		f.mBlockedUsers.Set(f.blockedNow)
	}
}

// armNext schedules the user's first candidate after the one at offset
// c, which drew gap, that the diurnal curve keeps. Each candidate draws
// its gap and accept values from a copy of the user's state: a kept
// candidate is scheduled with the state left before its draws, which
// its wake-up takes again; a thinned one commits its draws and is
// counted as a wake-up on the spot, without becoming an event. A
// negative gap (expGap's conversion of a product past the int64 range)
// makes the next candidate the current one, as the heap's clamp to now
// did for an event scheduled in the past, and the search stops at the
// first candidate at or after End, compared as gap ≥ span − c so that
// no sum can overflow.
//
//sslab:hotpath
func (f *Fleet) armNext(a *userArg, u *user, c, gap time.Duration) {
	for gap < f.span-c {
		if gap > 0 {
			c += gap
		}
		cp := *u
		gap = f.expGap(&cp)
		if cp.f64() < f.activity(c, u.phaseMin) {
			f.sim.AtCall(netsim.Epoch.Add(c), runUserWake, a)
			return
		}
		u.rng = cp.rng
		f.wakeups++
		f.mWakeups.Inc()
	}
}

// onBlockedFlow accounts one user observing its server null-routed, and
// triggers the operator's replace-after-block behavior once per server
// epoch.
func (f *Fleet) onBlockedFlow(u *user, srv *serverRec, now time.Time) {
	if !u.blocked {
		u.blocked = true
		f.blockedNow++
		f.mBlockedUsers.Set(f.blockedNow)
		if !u.everBlocked {
			u.everBlocked = true
			f.everBlocked++
			f.implEver[srv.implIdx]++
		}
	}
	if srv.firstFail.IsZero() {
		srv.firstFail = now
	}
	if !srv.replacing {
		srv.replacing = true
		f.sim.AfterCall(f.replaceAfter, runReplace, &f.sargs[u.server])
	}
}

// runReplace is the AfterCall trampoline for server replacement.
func runReplace(x any) {
	a := x.(*srvArg)
	a.f.replace(a.idx)
}

// replace moves a blocked server to a fresh endpoint: the operator
// re-provisions, users follow (their next flows reach the new address),
// and the GFW meets an unknown server again. The finished epoch's
// lifetime (activation → first observed failure) feeds the survival
// sketch.
func (f *Fleet) replace(idx int32) {
	srv := &f.servers[idx]
	now := f.sim.Now()
	srv.replacing = false
	f.lifetimes.Observe(srv.firstFail.Sub(srv.activated).Seconds())
	srv.firstFail = time.Time{}
	f.replacements++
	f.mReplacements.Inc()

	srv.ep = f.serverEndpoint()
	srv.activated = now
	f.epochs[srv.ep] = epoch{at: now, srv: idx}
	f.net.AddHost(srv.ep, srv.host)
}

// serverEndpoint mints the next server address (TEST-NET-style space,
// disjoint from client and prober addresses).
func (f *Fleet) serverEndpoint() netsim.Endpoint {
	n := f.nextServerIP
	f.nextServerIP++
	return netsim.Endpoint{
		IP:   fmt.Sprintf("198.51.%d.%d", (n/250)%250, n%250+1),
		Port: 8388,
	}
}

// runSample is the AtCall trampoline for bucket-boundary sampling.
func runSample(x any) {
	x.(*Fleet).sample()
}

// sample records the bucket series at a boundary: the blocked-user
// gauge and the probe-load delta since the previous boundary.
func (f *Fleet) sample() {
	f.blockedCurve = append(f.blockedCurve, f.blockedNow)
	probes := f.gfw.ProbesSent
	f.probeLoad = append(f.probeLoad, int64(probes-f.lastProbes))
	f.lastProbes = probes
	if now := f.sim.Now(); now.Before(f.end) {
		f.armSample(now)
	}
}

// armSample schedules the next sample one bucket after from, or at the
// end of the run if that comes first: a run that ends inside a bucket
// samples that partial bucket, as FlowsPerBucket counts its flows.
func (f *Fleet) armSample(from time.Time) {
	next := from.Add(f.bucket)
	if next.After(f.end) {
		next = f.end
	}
	f.sim.AtCall(next, runSample, f)
}

// Run executes one fleet experiment and reduces it to a Report. The
// variadic options configure execution only (worker pool size, metrics
// sink); every Report byte is a function of cfg alone, so any worker
// count reproduces the -workers 1 bytes exactly. Run is sugar for
// NewEngine + RunTo(End) + Report; use the Engine directly to pause,
// snapshot, or resume a run mid-flight.
func Run(cfg Config, opts ...Option) (*Report, error) {
	e, err := NewEngine(cfg, opts...)
	if err != nil {
		return nil, err
	}
	if err := e.RunTo(e.End()); err != nil {
		return nil, err
	}
	return e.Report()
}

// validate rejects configurations the engine cannot execute; called on
// the pre-defaults Config so user errors surface as errors, not
// normalized silently. Zero still selects a field's default. A negative
// size or interval would otherwise panic while planning, or schedule
// the next wake-up or sample in the past, where the clamp to now stops
// virtual time for good; so would an interval too long for a
// time.Duration, which wraps, often to a negative one.
func validate(cfg Config) error {
	if cfg.Shards < 0 {
		return fmt.Errorf("fleet: negative shard count %d", cfg.Shards)
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"Users", cfg.Users},
		{"UsersPerServer", cfg.UsersPerServer},
	} {
		if f.v < 0 {
			return fmt.Errorf("fleet: negative %s %d", f.name, f.v)
		}
	}
	if r := cfg.PeakFlowsPerHour; !(r >= 0) || math.IsInf(r, 1) {
		return fmt.Errorf("fleet: PeakFlowsPerHour %v is negative, NaN or infinite", r)
	}
	// Spans that become time.Duration values: the run length, the
	// operator's patience, the series bucket and a user's mean gap
	// between wake-ups at the peak rate.
	d := cfg.withDefaults()
	for _, f := range []struct {
		name string
		v    float64
		unit time.Duration
	}{
		{"Hours", float64(d.Hours), time.Hour},
		{"ReplaceAfterMin", float64(d.ReplaceAfterMin), time.Minute},
		{"BucketMin", float64(d.BucketMin), time.Minute},
		{"1/PeakFlowsPerHour", 1 / d.PeakFlowsPerHour, time.Hour},
	} {
		if err := netsim.CheckSpan(f.name, f.v, f.unit); err != nil {
			return fmt.Errorf("fleet: %w", err)
		}
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"ActivityFloor", cfg.ActivityFloor},
		{"BrowseShare", cfg.BrowseShare},
	} {
		if !(f.v >= 0 && f.v <= 1) {
			return fmt.Errorf("fleet: %s %v outside [0, 1]", f.name, f.v)
		}
	}
	mix := cfg.Mix
	if len(mix) == 0 {
		mix = DefaultMix
	}
	// planRun draws each server's implementation against the weights'
	// sum: a NaN or infinite weight, or a sum that overflows, would put
	// every server on the mix's last implementation.
	total := 0.0
	for _, share := range mix {
		if _, ok := implementations[share.Impl]; !ok {
			return fmt.Errorf("fleet: unknown implementation %q in mix", share.Impl)
		}
		if !(share.Weight >= 0) || math.IsInf(share.Weight, 0) {
			return fmt.Errorf("fleet: mix weight for %q must be non-negative and finite, got %v", share.Impl, share.Weight)
		}
		total += share.Weight
	}
	if total == 0 {
		return fmt.Errorf("fleet: mix has no positive weight")
	}
	if math.IsInf(total, 0) {
		return fmt.Errorf("fleet: mix weights must have a finite sum, got %v", total)
	}
	if err := cfg.Impair.Validate(); err != nil {
		return fmt.Errorf("fleet: Impair: %w", err)
	}
	if err := censorConfig(cfg.GFW).Validate(); err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	if cfg.Regions != nil {
		if err := resolveTopology(cfg).Validate(); err != nil {
			return fmt.Errorf("fleet: %w", err)
		}
	}
	return nil
}

// censorConfig applies the fleet's rule (see Config.GFW) to the engine's
// censor configuration or a region's override: Sensitivity 0 selects
// 0.25, and a negative one is built as 0, which never blocks and draws
// the same single coin a negative value did.
func censorConfig(g gfw.Config) gfw.Config {
	switch {
	case g.Sensitivity == 0:
		g.Sensitivity = 0.25
	case g.Sensitivity < 0:
		g.Sensitivity = 0
	}
	return g
}

// build constructs the shard's servers, users, and their initial
// wake-ups from the global plan.
func (f *Fleet) build(plan runPlan) {
	cfg := f.cfg

	f.implNames = make([]string, len(cfg.Mix))
	for k, s := range cfg.Mix {
		f.implNames[k] = s.Impl
	}
	f.implUsers = make([]int64, len(cfg.Mix))
	f.implServers = make([]int64, len(cfg.Mix))
	f.implEver = make([]int64, len(cfg.Mix))

	f.servers = make([]serverRec, f.serverHi-f.serverLo)
	f.sargs = make([]srvArg, len(f.servers))
	for j := range f.servers {
		gj := f.serverLo + j
		// The implementation was drawn globally (one "fleet.mix" stream
		// over all servers), so the population composition is independent
		// of the shard count.
		implIdx := int(plan.impl[gj])
		im := implementations[cfg.Mix[implIdx].Impl]
		var spec sscrypto.Spec
		var srv *reaction.Server
		if im.proto == protoSS {
			var err error
			spec, err = sscrypto.Lookup(im.method)
			if err != nil {
				panic(err) // implementations table only names built-in methods
			}
			srv, err = reaction.NewServer(im.profile, spec, fmt.Sprintf("fleet-%d", gj))
			if err != nil {
				panic(err)
			}
		}
		ep := f.serverEndpoint()
		f.servers[j] = serverRec{
			host:      newServerHost(f, srv, im.proto, im.silent),
			ep:        ep,
			spec:      spec,
			wl:        uint8(im.wl),
			proto:     im.proto,
			implIdx:   int32(implIdx),
			activated: netsim.Epoch,
		}
		f.implServers[implIdx]++
		f.sargs[j] = srvArg{f: f, idx: int32(j)}
		f.epochs[ep] = epoch{at: netsim.Epoch, srv: int32(j)}
		f.net.AddHost(ep, f.servers[j].host)
	}

	f.users = make([]user, f.userHi-f.userLo)
	f.uargs = make([]userArg, len(f.users))
	f.clients = make([]netsim.Endpoint, len(f.users))
	for i := range f.users {
		gi := f.userLo + i
		u := &f.users[i]
		// The user seed label carries the global index, so with one shard
		// the streams are exactly the historical ones.
		u.rng = uint64(seedfork.Fork(f.seed, "fleet.user", int64(gi)))
		u.server = int32(gi/cfg.UsersPerServer - f.serverLo)
		// Small personal jitter, not a uniform 24h shift: the population
		// shares a timezone, so the aggregate keeps its diurnal shape.
		u.phaseMin = int16(splitmix(&u.rng)%181) - 90
		// The BrowseShare draw always happens — keeping the per-user RNG
		// stream identical across mixes — then non-SS servers override the
		// workload with their protocol's first-packet shape.
		u.wl = uint8(trafficgen.CurlLoop)
		if u.f64() < cfg.BrowseShare {
			u.wl = uint8(trafficgen.BrowseAlexa)
		}
		srv := &f.servers[u.server]
		if srv.proto != protoSS {
			u.wl = srv.wl
		}
		f.implUsers[srv.implIdx]++
		f.uargs[i] = userArg{f: f, idx: int32(i)}
		f.clients[i] = netsim.Endpoint{
			IP:   fmt.Sprintf("100.%d.%d.%d", 64+gi/62500, (gi/250)%250, gi%250+1),
			Port: 40000,
		}
		// Stagger first wake-ups uniformly over one mean gap, so the
		// population is in Poisson steady state from the start. The first
		// candidate is scheduled unthinned, and only before End, as
		// armNext schedules every later one; its wake-up thins it. A
		// restored unit draws the stagger anyway (keeping this loop
		// identical) but re-arms its real pending wake-ups from the
		// snapshot instead.
		first := netsim.Epoch.Add(time.Duration(u.f64() * float64(f.meanGap)))
		if !f.restoring && first.Before(f.end) {
			f.sim.AtCall(first, runUserWake, &f.uargs[i])
		}
	}
}
