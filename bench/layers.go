package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"sslab/internal/bloom"
	"sslab/internal/detector"
	"sslab/internal/fleet"
	"sslab/internal/gfw"
	"sslab/internal/netsim"
	"sslab/internal/reaction"
	"sslab/internal/sscrypto"
	"sslab/internal/trafficgen"
)

// The layer suite times each layer's exported entry point on inputs shaped
// like the workload's: the same implementation mix, BrowseShare, detector
// chain, link profile, population size and wake-gap distribution. Every
// traced run executes the whole suite, so every per-layer cost is measured
// on every workload; a layer that does not run on the workload's own path
// (the simulator on serve-loopback, AEAD on the fleet) is timed on the
// fleet-ss shape or the serve set-up respectively. Each cost is the median
// of suiteRounds timed rounds after a warm-up.
const suiteRounds = 5

// implInfo models one fleet mix entry for the microbenches: a Shadowsocks
// cipher method and reaction profile, or the protocol's first-packet
// workload and probe posture (mirrors the fleet's implementation table).
type implInfo struct {
	method  string
	profile reaction.Profile
	wl      trafficgen.Workload
	silent  bool
}

var impls = map[string]implInfo{
	"libev-old":    {method: "aes-256-cfb", profile: reaction.LibevOld},
	"libev-new":    {method: "aes-256-gcm", profile: reaction.LibevNew},
	"outline":      {method: "chacha20-ietf-poly1305", profile: reaction.Outline107},
	"sspython":     {method: "aes-256-cfb", profile: reaction.SSPython},
	"ssr":          {method: "aes-256-ctr", profile: reaction.SSR},
	"openvpn":      {wl: trafficgen.OpenVPNTCP},
	"openvpn-auth": {wl: trafficgen.OpenVPNTCPAuth, silent: true},
	"obfs2":        {wl: trafficgen.ObfsFirst},
	"obfs4":        {wl: trafficgen.ObfsFirst, silent: true},
	"web":          {wl: trafficgen.WebDirect},
}

func (im implInfo) ss() bool { return im.method != "" }

// seen reports whether the fleet's server host remembers this protocol's
// payload hashes in its Bloom filter.
func (im implInfo) seen() bool { return im.ss() || im.wl == trafficgen.ObfsFirst }

// population is a workload-shaped set of servers, clients and first
// packets for the simulator microbenches.
type population struct {
	cfg     fleet.Config // post-defaults
	impls   []implInfo   // per server
	specs   []sscrypto.Spec
	servers []netsim.Endpoint
	clients []netsim.Endpoint
	flows   []popFlow // a pool of first packets, user-weighted
}

type popFlow struct {
	user, server int
	spec         sscrypto.Spec
	wl           trafficgen.Workload
	payload      []byte
}

// postDefaults returns cfg with the fleet's defaults applied, read back
// from a freshly built engine's Report.
func postDefaults(cfg fleet.Config) (fleet.Config, error) {
	e, err := fleet.NewEngine(cfg, fleet.WithWorkers(1))
	if err != nil {
		return cfg, err
	}
	rep, err := e.Report()
	if err != nil {
		return cfg, err
	}
	return rep.Config, nil
}

func newPopulation(cfg fleet.Config, seed int64, poolSize int) (*population, error) {
	cfg, err := postDefaults(cfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	p := &population{cfg: cfg}
	var totalW float64
	for _, s := range cfg.Mix {
		totalW += s.Weight
	}
	nServers := (cfg.Users + cfg.UsersPerServer - 1) / cfg.UsersPerServer
	for j := 0; j < nServers; j++ {
		draw := rng.Float64() * totalW
		name := cfg.Mix[len(cfg.Mix)-1].Impl
		for _, s := range cfg.Mix {
			if draw < s.Weight {
				name = s.Impl
				break
			}
			draw -= s.Weight
		}
		im, ok := impls[name]
		if !ok {
			return nil, fmt.Errorf("no microbench model for implementation %q", name)
		}
		var spec sscrypto.Spec
		if im.ss() {
			if spec, err = sscrypto.Lookup(im.method); err != nil {
				return nil, err
			}
		}
		p.impls = append(p.impls, im)
		p.specs = append(p.specs, spec)
		p.servers = append(p.servers, netsim.Endpoint{IP: fmt.Sprintf("198.51.%d.%d", (j/250)%250, j%250+1), Port: 8388})
	}
	for i := 0; i < cfg.Users; i++ {
		p.clients = append(p.clients, clientEndpoint(i))
	}
	g := trafficgen.New(seed)
	for k := 0; k < poolSize; k++ {
		u := rng.Intn(cfg.Users)
		s := u / cfg.UsersPerServer
		wl := trafficgen.CurlLoop
		if rng.Float64() < cfg.BrowseShare {
			wl = trafficgen.BrowseAlexa
		}
		if !p.impls[s].ss() {
			wl = p.impls[s].wl
		}
		f := popFlow{user: u, server: s, spec: p.specs[s], wl: wl}
		f.payload = g.AppendProtocolFirstPacket(nil, f.spec, f.wl)
		p.flows = append(p.flows, f)
	}
	return p, nil
}

func clientEndpoint(i int) netsim.Endpoint {
	return netsim.Endpoint{IP: fmt.Sprintf("100.%d.%d.%d", 64+i/62500, (i/250)%250, i%250+1), Port: 40000}
}

// timeOps returns the median, over suiteRounds rounds, of the ns per op of
// fn(n), after one warm-up round of n/10 ops.
func timeOps(n int, fn func(n int)) float64 {
	fn(n/10 + 1)
	var v []float64
	for r := 0; r < suiteRounds; r++ {
		t0 := time.Now()
		fn(n)
		v = append(v, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return medianOf(v)
}

// heapInUse is the live heap after a full collection.
func heapInUse() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

// layerSuite runs every microbench and returns the per-layer costs.
func layerSuite(w *workload, j job) (map[string]float64, error) {
	scale := func(n int) int {
		if j.Tiny {
			return n/50 + 1
		}
		return n
	}
	shapeName := w.name
	if !w.fleet {
		shapeName = "fleet-ss"
	}
	sh := shapeOf(shapeName, j.Seed, j.Tiny)
	pop, err := newPopulation(sh.cfg, j.Seed, 4096)
	if err != nil {
		return nil, err
	}
	link := lossyLink
	if sh.cfg.Impair != nil {
		link = *sh.cfg.Impair
	}
	out := map[string]float64{}

	out["trafficgen.append_ns"] = benchTrafficgen(pop, j.Seed, scale(200000))
	out["netsim.connect_batch_ns"] = benchConnect(pop, nil, scale(300000))
	out["netsim.connect_impaired_ns"] = benchConnect(pop, &link, scale(100000))
	out["netsim.new_link_ns"], out["netsim.new_link_bytes"] = benchNewLink(link, scale(20000))
	out["netsim.wheel_ns_per_timer"] = benchWheel(pop.cfg, j.Seed, scale(400000))
	if out["reaction.register_nonce_ns"], out["reaction.filter_bytes_per_server"], err = benchRegisterNonce(pop, j.Seed, scale(200000)); err != nil {
		return nil, err
	}
	out["bloom.add_ns"] = benchBloom(pop, scale(500000))
	if out["gfw.passive_verdict_ns"], out["detector.chain_observe_ns"], err = benchPassive(pop, scale(200000)); err != nil {
		return nil, err
	}
	if out["gfw.probe_ns"], err = benchProbe(pop, sh.cfg.Impair, j.Seed, scale(20000)); err != nil {
		return nil, err
	}
	if out["fleet.snapshot_s_per_mb"], out["fleet.restore_s_per_mb"], out["fleet.report_s"], err = benchSnapshot(sh, j.Tiny); err != nil {
		return nil, err
	}
	if out["sscrypto.seal_ns_per_kb"], out["sscrypto.open_ns_per_kb"], out["sscrypto.subkey_ns"], err = benchAEAD(j.Seed, scale(4000)); err != nil {
		return nil, err
	}
	if out["ssclient.dial_us"], out["serve.first_byte_us"], err = benchDial(j.Seed, scale(400)); err != nil {
		return nil, err
	}
	return out, nil
}

// benchTrafficgen times AppendProtocolFirstPacket over the pool's
// (cipher, workload) pairs.
func benchTrafficgen(pop *population, seed int64, n int) float64 {
	g := trafficgen.New(seed)
	var buf []byte
	return timeOps(n, func(n int) {
		for i := 0; i < n; i++ {
			f := &pop.flows[i%len(pop.flows)]
			buf = g.AppendProtocolFirstPacket(buf[:0], f.spec, f.wl)
		}
	})
}

// benchConnect times the fleet's batch-of-one ConnectBatch on a network
// with every server bound to a trivial host and no middlebox: the
// network's own per-flow cost, on ideal links (link == nil) or impaired
// ones (warm: every link of the pool exists before timing).
func benchConnect(pop *population, link *netsim.LinkProfile, n int) float64 {
	sim := netsim.NewSim()
	var opts []netsim.NetworkOption
	if link != nil {
		opts = append(opts, netsim.WithDefaultLink(*link))
	}
	nw := netsim.NewNetwork(sim, opts...)
	host := netsim.HostFunc(func(*netsim.Flow) netsim.Outcome {
		return netsim.Outcome{Reaction: reaction.Data, ResponseLen: 1200}
	})
	for _, ep := range pop.servers {
		nw.AddHost(ep, host)
	}
	var specs [1]netsim.FlowSpec
	out := make([]netsim.Outcome, 0, 1)
	connect := func(n int) {
		for i := 0; i < n; i++ {
			f := &pop.flows[i%len(pop.flows)]
			specs[0] = netsim.FlowSpec{Client: pop.clients[f.user], Server: pop.servers[f.server], FirstPayload: f.payload}
			out = nw.ConnectBatch(specs[:], out[:0])
		}
	}
	connect(len(pop.flows))
	return timeOps(n, connect)
}

// benchNewLink times the first flow between m fresh client/server pairs
// on an impaired network against a second pass over the same (now warm)
// pairs; each first flow creates two directed links. It also reports the
// heap each link keeps alive.
func benchNewLink(link netsim.LinkProfile, m int) (ns, bytesPerLink float64) {
	clients := make([]netsim.Endpoint, m)
	for i := range clients {
		clients[i] = clientEndpoint(i)
	}
	server := netsim.Endpoint{IP: "198.51.0.1", Port: 8388}
	payload := make([]byte, 300)
	var nsv, bv []float64
	for r := 0; r < 3; r++ {
		sim := netsim.NewSim(netsim.WithSeed(int64(r)))
		nw := netsim.NewNetwork(sim, netsim.WithDefaultLink(link))
		nw.AddHost(server, netsim.HostFunc(func(*netsim.Flow) netsim.Outcome {
			return netsim.Outcome{Reaction: reaction.Data, ResponseLen: 1200}
		}))
		pass := func() float64 {
			t0 := time.Now()
			for _, c := range clients {
				nw.Connect(c, server, payload, false, time.Time{})
			}
			return float64(time.Since(t0).Nanoseconds())
		}
		h0 := heapInUse()
		cold := pass()
		h1 := heapInUse()
		warm := pass()
		nsv = append(nsv, (cold-warm)/float64(2*m))
		bv = append(bv, (h1-h0)/float64(2*m))
		runtime.KeepAlive(nw)
	}
	return medianOf(nsv), medianOf(bv)
}

// wheelTimer is one self-rescheduling timer of the wheel microbench: a
// user's Poisson wake-up chain.
type wheelTimer struct {
	w    *netsim.Wheel
	sim  *netsim.Sim
	rng  uint64
	mean float64
	end  time.Time
}

func (t *wheelTimer) gap() time.Duration {
	t.rng += 0x9e3779b97f4a7c15
	z := t.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	u := float64((z^(z>>31))>>11) / (1 << 53)
	return time.Duration(-math.Log1p(-u) * t.mean)
}

func fireWheelTimer(x any) {
	t := x.(*wheelTimer)
	if next := t.sim.Now().Add(t.gap()); next.Before(t.end) {
		t.w.Schedule(next, fireWheelTimer, t)
	}
}

// benchWheel times the timing wheel and event heap the way the fleet
// drives them: one Poisson wake-up chain per user, at the workload's peak
// rate, with the population split over the run's units (regions × shards,
// each with its own simulator and wheel), run for as many virtual hours as
// it takes to schedule about `target` timers. The cost per timer covers
// Schedule, the cascades, the anchor events and the heap dispatch; a
// sparse per-unit wheel pays more anchors per timer than one dense wheel.
func benchWheel(cfg fleet.Config, seed int64, target int) float64 {
	units := cfg.Shards
	if cfg.Regions != nil {
		units *= len(cfg.Regions.Regions)
	}
	perUnit := cfg.Users / units
	mean := float64(time.Hour) / cfg.PeakFlowsPerHour
	end := netsim.Epoch.Add(time.Duration(float64(target) / float64(cfg.Users) * mean))
	var v []float64
	for r := 0; r < 3; r++ {
		var elapsed time.Duration
		var timers int64
		for u := 0; u < units; u++ {
			sim := netsim.NewSim()
			w := netsim.NewWheel(sim)
			chains := make([]wheelTimer, perUnit)
			for i := range chains {
				t := &chains[i]
				*t = wheelTimer{w: w, sim: sim, rng: uint64(seed)*1e6 + uint64(u*perUnit+i), mean: mean, end: end}
				w.Schedule(netsim.Epoch.Add(time.Duration(float64(i)/float64(perUnit)*mean)), fireWheelTimer, t)
			}
			scheduled := sim.Metrics.Counter("wheel.scheduled")
			before := scheduled.Value()
			t0 := time.Now()
			sim.RunUntil(end)
			elapsed += time.Since(t0)
			timers += scheduled.Value() - before
		}
		v = append(v, float64(elapsed.Nanoseconds())/float64(timers))
	}
	return medianOf(v)
}

// benchRegisterNonce times reaction.Server.RegisterNonce with fresh nonces
// spread over the population's Shadowsocks servers, and reports the heap a
// server's replay filter holds once the workload's flows have filled it.
func benchRegisterNonce(pop *population, seed int64, n int) (ns, bytesPerServer float64, err error) {
	h0 := heapInUse()
	var srvs []*reaction.Server
	var ivs []int
	for s, im := range pop.impls {
		if !im.ss() {
			continue
		}
		srv, err := reaction.NewServer(im.profile, pop.specs[s], fmt.Sprintf("bench-%d", s))
		if err != nil {
			return 0, 0, err
		}
		srvs = append(srvs, srv)
		ivs = append(ivs, pop.specs[s].IVSize)
	}
	if len(srvs) == 0 {
		return 0, 0, nil
	}
	const stride = 64
	nonces := make([]byte, (n+n/10+1)*stride)
	rand.New(rand.NewSource(seed)).Read(nonces)
	now := netsim.Epoch
	next := 0
	ns = timeOps(n, func(n int) {
		for i := 0; i < n; i++ {
			k := next % len(srvs)
			off := (next % (len(nonces) / stride)) * stride
			srvs[k].RegisterNonce(nonces[off:off+ivs[k]+1], now)
			next++
			now = now.Add(time.Millisecond)
		}
	})
	nonces = nil
	bytesPerServer = (heapInUse() - h0) / float64(len(srvs))
	runtime.KeepAlive(srvs)
	return ns, bytesPerServer, nil
}

// benchBloom times what the fleet's server host does per genuine flow to
// a Shadowsocks or obfs server: FNV-1a over the first payload, then a
// Bloom filter Add, with filters sized for the server's epoch traffic.
func benchBloom(pop *population, n int) float64 {
	cfg := pop.cfg
	capacity := int(float64(cfg.UsersPerServer*cfg.Hours)*cfg.PeakFlowsPerHour*1.5) + 64
	filters := make([]*bloom.Filter, len(pop.servers))
	var flows []popFlow
	for _, f := range pop.flows {
		if pop.impls[f.server].seen() {
			flows = append(flows, f)
			if filters[f.server] == nil {
				filters[f.server] = bloom.New(capacity, 1e-3)
			}
		}
	}
	if len(flows) == 0 {
		return 0
	}
	var key [8]byte
	return timeOps(n, func(n int) {
		for i := 0; i < n; i++ {
			f := &flows[i%len(flows)]
			const offset64, prime64 = 14695981039346656037, 1099511628211
			sum := uint64(offset64)
			for _, b := range f.payload {
				sum ^= uint64(b)
				sum *= prime64
			}
			binary.BigEndian.PutUint64(key[:], sum)
			filters[f.server].Add(key[:])
		}
	})
}

// chainNames is the workload's detector chain (the fleet default when the
// config names none).
func chainNames(cfg fleet.Config) []string {
	if len(cfg.GFW.Detectors) > 0 {
		return cfg.GFW.Detectors
	}
	return []string{detector.StageShadowsocks}
}

// benchPassive times the censor's passive half as the fleet runs it
// (verdict cache off): GFW.OnFlow on a probing-paused censor — trigger
// count, length profile, chain verdict — and the detector chain alone.
func benchPassive(pop *population, n int) (passive, chain float64, err error) {
	flows := make([]netsim.Flow, len(pop.flows))
	for i, f := range pop.flows {
		flows[i] = netsim.Flow{Client: pop.clients[f.user], Server: pop.servers[f.server],
			FirstPayload: f.payload, Start: netsim.Epoch, GeneratedAt: netsim.Epoch}
	}
	sim := netsim.NewSim()
	nw := netsim.NewNetwork(sim)
	gcfg := pop.cfg.GFW
	gcfg.NoProbeLog = true
	gcfg.VerdictCache = 0
	g := gfw.New(gfw.Env{Sim: sim, Net: nw}, gfw.WithConfig(gcfg))
	g.SetProbingPaused(true)
	passive = timeOps(n, func(n int) {
		for i := 0; i < n; i++ {
			g.OnFlow(&flows[i%len(flows)])
		}
	})
	c, err := detector.NewChain(chainNames(pop.cfg), detector.Params{})
	if err != nil {
		return 0, 0, err
	}
	chain = timeOps(n, func(n int) {
		for i := 0; i < n; i++ {
			c.Observe(&flows[i%len(flows)])
		}
	})
	return passive, chain, nil
}

// probeHost is a simplified fleet server host for the probe microbench:
// genuine flows are served, probes get the implementation's reaction.
func probeHost(sim *netsim.Sim, im implInfo, srv *reaction.Server) netsim.Host {
	return netsim.HostFunc(func(fl *netsim.Flow) netsim.Outcome {
		if !fl.Probe {
			if fl.FirstPayload == nil {
				return netsim.Outcome{Reaction: reaction.Timeout}
			}
			if srv != nil {
				srv.RegisterNonce(fl.FirstPayload, sim.Now())
			}
			return netsim.Outcome{Reaction: reaction.Data, ResponseLen: 1200}
		}
		switch {
		case im.silent:
			return netsim.Outcome{Reaction: reaction.Timeout}
		case srv != nil:
			return netsim.Outcome{Reaction: srv.ReactAt(fl.FirstPayload, fl.GeneratedAt, sim.Now()).Reaction}
		case im.wl == trafficgen.OpenVPNTCP:
			if _, ok := detector.ParseClientReset(fl.FirstPayload); ok {
				return netsim.Outcome{Reaction: reaction.Data, ResponseLen: 100}
			}
			return netsim.Outcome{Reaction: reaction.RST}
		case im.wl == trafficgen.WebDirect && (bytes.HasPrefix(fl.FirstPayload, []byte("GET ")) || len(fl.FirstPayload) > 0 && fl.FirstPayload[0] == 0x16):
			return netsim.Outcome{Reaction: reaction.Data, ResponseLen: 1200}
		default:
			return netsim.Outcome{Reaction: reaction.FINACK}
		}
	})
}

// probeArg is one scheduled genuine flow of the probe microbench.
type probeArg struct {
	nw   *netsim.Network
	flow *netsim.Flow
}

func fireProbeFlow(x any) {
	a := x.(*probeArg)
	a.nw.Connect(a.flow.Client, a.flow.Server, a.flow.FirstPayload, false, time.Time{})
}

// benchProbe measures the censor's cost per probe sent — recording,
// scheduling, probe construction, the probe's Connect and the server's
// reaction, and the staged bookkeeping — as the difference between the
// same flows with probing on and paused, divided by the probes sent. The
// recording rate is raised so probes are as frequent as flows, and
// blocking is off so both runs carry identical genuine traffic.
func benchProbe(pop *population, link *netsim.LinkProfile, seed int64, nflows int) (float64, error) {
	flows := make([]netsim.Flow, nflows)
	for i := range flows {
		f := pop.flows[i%len(pop.flows)]
		flows[i] = netsim.Flow{Client: pop.clients[f.user], Server: pop.servers[f.server], FirstPayload: f.payload}
	}
	spacing := time.Duration(float64(pop.cfg.Hours) * float64(time.Hour) / float64(nflows))
	once := func(paused bool) (float64, int, error) {
		sim := netsim.NewSim(netsim.WithSeed(seed))
		var opts []netsim.NetworkOption
		if link != nil {
			opts = append(opts, netsim.WithDefaultLink(*link))
		}
		nw := netsim.NewNetwork(sim, opts...)
		gcfg := pop.cfg.GFW
		gcfg.Seed = seed
		gcfg.NoProbeLog = true
		gcfg.VerdictCache = 0
		gcfg.Sensitivity = 0
		gcfg.ReplayBase = 1
		g := gfw.New(gfw.Env{Sim: sim, Net: nw}, gfw.WithConfig(gcfg))
		nw.AddMiddlebox(g)
		g.SetProbingPaused(paused)
		for s, im := range pop.impls {
			var srv *reaction.Server
			if im.ss() {
				var err error
				if srv, err = reaction.NewServer(im.profile, pop.specs[s], fmt.Sprintf("bench-%d", s)); err != nil {
					return 0, 0, err
				}
			}
			nw.AddHost(pop.servers[s], probeHost(sim, im, srv))
		}
		args := make([]probeArg, len(flows))
		for i := range flows {
			args[i] = probeArg{nw: nw, flow: &flows[i]}
			sim.AtCall(netsim.Epoch.Add(time.Duration(i)*spacing), fireProbeFlow, &args[i])
		}
		runtime.GC()
		t0 := time.Now()
		sim.Run()
		return float64(time.Since(t0).Nanoseconds()), g.ProbesSent, nil
	}
	var v []float64
	for r := 0; r < 3; r++ {
		off, _, err := once(true)
		if err != nil {
			return 0, err
		}
		on, probes, err := once(false)
		if err != nil {
			return 0, err
		}
		if probes > 0 {
			v = append(v, (on-off)/float64(probes))
		}
	}
	return medianOf(v), nil
}

// benchSnapshot times Snapshot, Restore and Report on the workload's
// configuration at a smaller population (and without link impairment,
// which Snapshot refuses), stopped at mid-run.
func benchSnapshot(sh fleetShape, tiny bool) (saveSPerMB, restoreSPerMB, reportS float64, err error) {
	cfg := sh.cfg
	cfg.Impair = nil
	if !tiny && cfg.Users > 5000 {
		cfg.Users = 5000
	}
	if cfg.Hours > 8 {
		cfg.Hours = 8
	}
	if cfg.Regions != nil {
		cfg.Regions = crackdownGradient(cfg.Hours)
	}
	opts := []fleet.Option{fleet.WithWorkers(sh.workers)}
	var save, restore, report []float64
	for r := 0; r < 3; r++ {
		e, err := fleet.NewEngine(cfg, opts...)
		if err != nil {
			return 0, 0, 0, err
		}
		if err := e.RunTo(netsim.Epoch.Add(time.Duration(cfg.Hours) * time.Hour / 2)); err != nil {
			return 0, 0, 0, err
		}
		t0 := time.Now()
		data, err := e.Snapshot()
		saveS := since(t0)
		if err != nil {
			return 0, 0, 0, err
		}
		mb := float64(len(data)) / 1e6
		e = nil
		runtime.GC()
		t0 = time.Now()
		e, err = fleet.Restore(data, opts...)
		restoreS := since(t0)
		if err != nil {
			return 0, 0, 0, err
		}
		if err := e.RunTo(e.End()); err != nil {
			return 0, 0, 0, err
		}
		t0 = time.Now()
		if _, err := e.Report(); err != nil {
			return 0, 0, 0, err
		}
		report = append(report, since(t0))
		save = append(save, saveS/mb)
		restore = append(restore, restoreS/mb)
	}
	return medianOf(save), medianOf(restore), medianOf(report), nil
}

// benchAEAD times the relay's AEAD work per KiB of payload at its chunk
// size (an 8 KiB chunk plus its sealed 2-byte length prefix), and the
// per-direction session set-up (HKDF subkey plus cipher construction).
func benchAEAD(seed int64, n int) (sealNsPerKiB, openNsPerKiB, subkeyNs float64, err error) {
	const chunk = 8 << 10
	spec, err := sscrypto.Lookup(serveMethod)
	if err != nil {
		return 0, 0, 0, err
	}
	rng := rand.New(rand.NewSource(seed))
	key := spec.Key(fmt.Sprintf("bench-%d", seed))
	salt := make([]byte, spec.SaltSize())
	rng.Read(salt)
	aead, err := spec.NewAEAD(sscrypto.SessionSubkey(key, salt))
	if err != nil {
		return 0, 0, 0, err
	}
	payload := make([]byte, chunk)
	rng.Read(payload)
	lenBuf := []byte{chunk >> 8, chunk & 0xff}
	n1 := make([]byte, aead.NonceSize())
	n2 := make([]byte, aead.NonceSize())
	n2[0] = 1
	sealed := aead.Seal(nil, n1, lenBuf, nil)
	sealed = aead.Seal(sealed, n2, payload, nil)
	headLen := len(lenBuf) + aead.Overhead()
	out := make([]byte, 0, len(sealed))
	var openErr error
	sealNs := timeOps(n, func(n int) {
		for i := 0; i < n; i++ {
			out = aead.Seal(out[:0], n1, lenBuf, nil)
			out = aead.Seal(out, n2, payload, nil)
		}
	})
	openNs := timeOps(n, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := aead.Open(out[:0], n1, sealed[:headLen], nil); err != nil {
				openErr = err
			}
			if _, err := aead.Open(out[:0], n2, sealed[headLen:], nil); err != nil {
				openErr = err
			}
		}
	})
	if openErr != nil {
		return 0, 0, 0, fmt.Errorf("AEAD open: %w", openErr)
	}
	var subErr error
	subkeyNs = timeOps(n, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := spec.NewAEAD(sscrypto.SessionSubkey(key, salt)); err != nil {
				subErr = err
			}
		}
	})
	if subErr != nil {
		return 0, 0, 0, subErr
	}
	return sealNs / (chunk / 1024), openNs / (chunk / 1024), subkeyNs, nil
}

// benchDial runs n sequential 64-byte fetches through a fresh loopback
// stack and returns the median dial and first-response-byte latencies.
func benchDial(seed int64, n int) (dialUs, firstUs float64, err error) {
	pattern := make([]byte, patternSize)
	rand.New(rand.NewSource(seed)).Read(pattern)
	st, err := startStack(pattern, fmt.Sprintf("bench-%d", seed), nil)
	if err != nil {
		return 0, 0, err
	}
	defer st.close()
	buf := make([]byte, 4096)
	var dial, first []float64
	for i := 0; i < n; i++ {
		ft, err := st.fetch(uint64(i)*64, 64, buf)
		if err != nil {
			return 0, 0, err
		}
		dial = append(dial, float64(ft.dial)/1e3)
		first = append(first, float64(ft.first)/1e3)
	}
	return medianOf(dial), medianOf(first), nil
}
