package fleet

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"sort"
	"time"

	"sslab/internal/gfw"
	"sslab/internal/netsim"
	"sslab/internal/replay"
	"sslab/internal/seedfork"
	"sslab/internal/stats"
)

// Snapshot format: the magic string, a big-endian uint32 version, then
// a gob-encoded engineSnap. The version bumps whenever the DTO layout
// changes; Restore rejects unknown versions rather than guessing.
// Version 2 adds each built RNG stream's register, which restore copies
// back; version 1 lacks them, and restore replays those streams from
// their seeds instead (gob leaves absent fields zero and skips fields
// the DTOs no longer have). Snapshot *bytes* are not canonical (gob
// serializes map-backed sketch state in arbitrary order) — the pinned
// invariant is that a restored engine's continued run reports
// byte-identically to an uninterrupted one, which the snapshot
// round-trip tests and the CI resume smoke enforce.
const (
	snapMagic   = "SSLABSNAP"
	snapVersion = 2
)

// engineSnap is the full serialized engine: the science config (the
// plan is re-derived from it) and each unit's state, in unit order.
type engineSnap struct {
	Config Config
	Now    time.Time
	Units  []unitSnap
}

// unitSnap is one unit's complete mutable state at a quiescent RunTo
// boundary. Structure (hosts, plan, metrics bindings, and each user's
// server, diurnal phase and workload) is rebuilt from Config; only
// state that evolves during a run is stored. Version-1 snapshots also
// carry UServer, UPhase and UWl, and each epoch an Impl, and snapshots
// of both versions a GapQ sketch; gob skips them, so no new field may
// take those names.
type unitSnap struct {
	// Packed per-user state, parallel arrays indexed by local user.
	URng         []uint64
	UBlocked     []bool
	UEverBlocked []bool

	Servers      []serverSnap
	Epochs       []epochSnap
	NextServerIP int

	// Aggregates.
	Flows        int64
	Wakeups      int64
	BlockedNow   int64
	EverBlocked  int64
	Replacements int64
	LastProbes   int
	BlockedCurve []int64
	ProbeLoad    []int64
	ImplEver     []int64

	// Sketches (exported-field types; Quantile's cached logGamma is
	// recomputed lazily after decoding).
	FlowsTS stats.TimeSeries
	LatQ    stats.Quantile
	LifeQ   stats.Quantile

	PolicyNext int

	TG  seedfork.State
	GFW gfw.State
	Net netsim.NetworkState

	// Pending events, in scheduling-sequence order (see netsim's
	// snapshot surface).
	HeapEvents []eventSnap
	// WheelEvents holds the user wake-ups that snapshots written before
	// the heap became the only scheduler had parked in a timing wheel.
	// Snapshot never writes it; restore still reads it, because gob
	// skips fields the destination lacks and dropping it would silently
	// lose those wake-ups (testdata/resume.snap is such a snapshot).
	WheelEvents []eventSnap
}

// serverSnap is one server's mutable state: its current endpoint epoch
// and the replay filter of its long-lived host. Older snapshots carry a
// Seen field that gob skips, so no new field may take that name.
type serverSnap struct {
	Ep        netsim.Endpoint
	Activated time.Time
	FirstFail time.Time
	Replacing bool
	// Filter is the reaction engine's replay-defense state (Shadowsocks
	// servers only; nil otherwise).
	Filter *replay.State
}

// epochSnap is one endpoint activation record.
type epochSnap struct {
	EP  netsim.Endpoint
	At  time.Time
	Srv int32
}

// eventSnap is one pending scheduled event in serializable form. Kind
// selects the trampoline; Idx addresses the unit's pre-allocated arg
// (user or server); Task carries a censor task's payload.
type eventSnap struct {
	At   time.Time
	Kind string // "wake", "replace", "sample", "policy", "gfw"
	Idx  int32
	Task *gfw.TaskState
}

// Snapshot serializes the engine at its current quiescent boundary —
// after a RunTo returned and before Report has been called. The
// restored engine continues byte-identically: run-to-T, Snapshot,
// Restore, run-to-2T reports exactly what an uninterrupted run-to-2T
// does, at any shard count.
//
// Two documented refusals: impaired runs (per-link state — each link's
// stream position and FIFO floor — is not captured yet) and engines that already reported (Report's reduction
// consumes pending block latencies, so the state is no longer the
// mid-run state).
func (e *Engine) Snapshot() ([]byte, error) {
	if e.rep != nil {
		return nil, fmt.Errorf("fleet: cannot snapshot after Report — the reduction already consumed pending state")
	}
	if e.cfg.Impair != nil {
		return nil, fmt.Errorf("fleet: cannot snapshot an impaired run (each link's stream position and FIFO floor are not captured yet)")
	}
	snap := engineSnap{Config: e.cfg, Now: e.now, Units: make([]unitSnap, len(e.units))}
	if err := e.each(func(i int) error {
		u, err := e.units[i].capture()
		if err != nil {
			return err
		}
		snap.Units[i] = u
		return nil
	}); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	buf.WriteString(snapMagic)
	var ver [4]byte
	binary.BigEndian.PutUint32(ver[:], snapVersion)
	buf.Write(ver[:])
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		return nil, fmt.Errorf("fleet: encoding snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// Restore rebuilds an engine from Snapshot bytes. Options configure
// execution of the restored engine (they need not match the original
// run's — execution options are report-invariant).
func Restore(data []byte, opts ...Option) (*Engine, error) {
	if len(data) < len(snapMagic)+4 || string(data[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("fleet: not a fleet snapshot (bad magic)")
	}
	ver := binary.BigEndian.Uint32(data[len(snapMagic) : len(snapMagic)+4])
	if ver < 1 || ver > snapVersion {
		return nil, fmt.Errorf("fleet: snapshot version %d not supported (want 1 to %d)", ver, snapVersion)
	}
	var snap engineSnap
	if err := gob.NewDecoder(bytes.NewReader(data[len(snapMagic)+4:])).Decode(&snap); err != nil {
		return nil, fmt.Errorf("fleet: decoding snapshot: %w", err)
	}
	if ver >= 2 {
		for i := range snap.Units {
			if err := snap.Units[i].checkRegisters(); err != nil {
				return nil, fmt.Errorf("fleet: unit %d: %w", i, err)
			}
		}
	}
	return newEngine(snap.Config, &snap, opts)
}

// checkTotals compares the users and servers a snapshot holds with
// what cfg, its decoded Config, plans, before planning allocates for
// them: a Config edited to more users would otherwise have every unit
// built before the mismatch showed.
func (s *engineSnap) checkTotals(cfg Config) error {
	var users, servers int
	for i := range s.Units {
		users += len(s.Units[i].URng)
		servers += len(s.Units[i].Servers)
	}
	if users != cfg.Users || servers != serverCount(cfg) {
		return fmt.Errorf("fleet: snapshot holds %d users on %d servers, config plans %d on %d",
			users, servers, cfg.Users, serverCount(cfg))
	}
	return nil
}

// checkCounts compares one unit's per-user, per-server and per-mix-row
// state with what the plan builds for u, before buildUnit allocates it.
func (s *unitSnap) checkCounts(cfg Config, u unitSpec) error {
	lo, hi := u.users(cfg)
	for _, c := range []struct {
		what      string
		got, want int
	}{
		{"users", len(s.URng), hi - lo},
		{"blocked flags", len(s.UBlocked), hi - lo},
		{"ever-blocked flags", len(s.UEverBlocked), hi - lo},
		{"servers", len(s.Servers), u.hi - u.lo},
		{"mix rows", len(s.ImplEver), len(cfg.Mix)},
	} {
		if c.got != c.want {
			return fmt.Errorf("snapshot has %d %s, plan builds %d", c.got, c.what, c.want)
		}
	}
	return nil
}

// checkRegisters refuses a stream state of a version-2 snapshot that is
// past seedfork's lazy phase yet carries no register. A version-2
// writer saves every built register, and restoring a stream without
// one replays it from its seed, draw by draw, for as many draws as the
// input claims.
func (s *unitSnap) checkRegisters() error {
	for _, st := range []struct {
		name     string
		draws    uint64
		register []int64
	}{
		{"trafficgen", s.TG.Draws, s.TG.Register},
		{"censor", s.GFW.RNGDraws, s.GFW.RNGRegister},
		{"prober pool", s.GFW.PoolDraws, s.GFW.PoolRegister},
	} {
		if st.register == nil && st.draws > seedfork.LazyDraws {
			return fmt.Errorf("%s stream at draw %d has no register", st.name, st.draws)
		}
	}
	return nil
}

// capture serializes one unit. The unit must be quiescent (its
// simulator stopped at a RunUntil boundary), which RunTo guarantees.
func (f *Fleet) capture() (unitSnap, error) {
	n := len(f.users)
	s := unitSnap{
		URng:         make([]uint64, n),
		UBlocked:     make([]bool, n),
		UEverBlocked: make([]bool, n),
		NextServerIP: f.nextServerIP,
		Flows:        f.flows,
		Wakeups:      f.wakeups,
		BlockedNow:   f.blockedNow,
		EverBlocked:  f.everBlocked,
		Replacements: f.replacements,
		LastProbes:   f.lastProbes,
		BlockedCurve: append([]int64(nil), f.blockedCurve...),
		ProbeLoad:    append([]int64(nil), f.probeLoad...),
		ImplEver:     append([]int64(nil), f.implEver...),
		FlowsTS:      *f.flowsTS,
		LatQ:         *f.latencies,
		LifeQ:        *f.lifetimes,
		PolicyNext:   f.policyNext,
		TG:           f.tg.CaptureRNG(),
		GFW:          f.gfw.CaptureState(),
		Net:          f.net.CaptureState(),
	}
	for i := range f.users {
		u := &f.users[i]
		s.URng[i] = u.rng
		s.UBlocked[i] = u.blocked
		s.UEverBlocked[i] = u.everBlocked
	}
	s.Servers = make([]serverSnap, len(f.servers))
	for j := range f.servers {
		srv := &f.servers[j]
		ss := serverSnap{
			Ep:        srv.ep,
			Activated: srv.activated,
			FirstFail: srv.firstFail,
			Replacing: srv.replacing,
		}
		if srv.host.srv != nil {
			st, err := srv.host.srv.FilterState()
			if err != nil {
				return unitSnap{}, fmt.Errorf("server %d: %w", f.serverLo+j, err)
			}
			ss.Filter = &st
		}
		s.Servers[j] = ss
	}
	s.Epochs = make([]epochSnap, 0, len(f.epochs))
	for ep, e := range f.epochs {
		s.Epochs = append(s.Epochs, epochSnap{EP: ep, At: e.at, Srv: e.srv})
	}
	sort.Slice(s.Epochs, func(i, j int) bool { return s.Epochs[i].EP.Less(s.Epochs[j].EP) })

	for _, ev := range f.sim.PendingEvents() {
		es := eventSnap{At: ev.At}
		switch a := ev.Arg.(type) {
		case *userArg:
			es.Kind, es.Idx = "wake", a.idx
		case *srvArg:
			es.Kind, es.Idx = "replace", a.idx
		case *Fleet:
			es.Kind = "sample"
		case *policyArg:
			es.Kind = "policy"
		default:
			ts, ok := gfw.EncodeTask(ev.Arg)
			if !ok {
				return unitSnap{}, fmt.Errorf("cannot snapshot pending event with arg %T", ev.Arg)
			}
			es.Kind, es.Task = "gfw", &ts
		}
		s.HeapEvents = append(s.HeapEvents, es)
	}
	return s, nil
}

// restore overwrites a freshly built (restoring=true) unit with its
// snapshot state, whose counts checkCounts has matched to the unit,
// and re-arms its pending events. The sequence matters:
// the simulator's clock is advanced to the snapshot time first (so
// nothing is clamped into the past), state is overwritten second, and
// events are re-armed last — heap events in original sequence order,
// which reproduces the captured run's dispatch order exactly, then any
// wheel entries of an older snapshot in their original order.
func (f *Fleet) restore(s *unitSnap, now time.Time) error {
	// 1. Advance the empty simulator to the snapshot time.
	f.sim.RunUntil(now)

	// 2. Overwrite mutable state; build set everything else.
	for i := range f.users {
		u := &f.users[i]
		u.rng, u.blocked, u.everBlocked = s.URng[i], s.UBlocked[i], s.UEverBlocked[i]
	}
	for j := range f.servers {
		srv := &f.servers[j]
		ss := &s.Servers[j]
		srv.ep = ss.Ep
		srv.activated = ss.Activated
		srv.firstFail = ss.FirstFail
		srv.replacing = ss.Replacing
		if srv.host.srv != nil {
			if ss.Filter == nil {
				return fmt.Errorf("server %d: snapshot lacks replay filter state", f.serverLo+j)
			}
			if err := srv.host.srv.RestoreFilterState(*ss.Filter); err != nil {
				return fmt.Errorf("server %d: %w", f.serverLo+j, err)
			}
		}
	}
	f.epochs = make(map[netsim.Endpoint]epoch, len(s.Epochs))
	for _, es := range s.Epochs {
		if es.Srv < 0 || int(es.Srv) >= len(f.servers) {
			return fmt.Errorf("epoch %v references server %d of %d", es.EP, es.Srv, len(f.servers))
		}
		f.epochs[es.EP] = epoch{at: es.At, srv: es.Srv}
		// Re-bind every historical endpoint: old endpoints outlive a
		// replacement and still serve the censor's probes.
		f.net.AddHost(es.EP, f.servers[es.Srv].host)
	}
	f.nextServerIP = s.NextServerIP
	f.flows = s.Flows
	f.wakeups = s.Wakeups
	f.blockedNow = s.BlockedNow
	f.everBlocked = s.EverBlocked
	f.replacements = s.Replacements
	f.lastProbes = s.LastProbes
	f.blockedCurve = append([]int64(nil), s.BlockedCurve...)
	f.probeLoad = append([]int64(nil), s.ProbeLoad...)
	copy(f.implEver, s.ImplEver)
	ts, lat, life := s.FlowsTS, s.LatQ, s.LifeQ
	f.flowsTS, f.latencies, f.lifetimes = &ts, &lat, &life
	f.policyNext = s.PolicyNext
	if err := f.tg.RestoreRNG(s.TG); err != nil {
		return fmt.Errorf("trafficgen: %w", err)
	}
	if err := f.gfw.RestoreState(s.GFW); err != nil {
		return err
	}
	f.net.RestoreState(s.Net)
	f.mBlockedUsers.Set(f.blockedNow)

	// 3. Re-arm pending events onto the heap, each list in its original
	// sequence order, counting each user's wake-ups over both lists.
	wakes := make([]int32, len(f.users))
	for _, evs := range [][]eventSnap{s.HeapEvents, s.WheelEvents} {
		for _, ev := range evs {
			if err := f.rearm(ev, now, wakes); err != nil {
				return err
			}
		}
	}
	// A user's state sits just before the draws of its one pending
	// wake-up: a second one would draw the same values again.
	for i, n := range wakes {
		if n > 1 {
			return fmt.Errorf("user %d has %d pending wake-ups", f.userLo+i, n)
		}
	}
	return nil
}

// rearm schedules one captured pending event, restored at virtual time
// now, on the unit's simulator, counting a wake-up in wakes.
func (f *Fleet) rearm(ev eventSnap, now time.Time, wakes []int32) error {
	switch ev.Kind {
	case "wake":
		if ev.Idx < 0 || int(ev.Idx) >= len(f.uargs) {
			return fmt.Errorf("pending wake references user %d of %d", ev.Idx, len(f.uargs))
		}
		// RunTo leaves every pending event after its target; the heap
		// would clamp an earlier wake-up to now.
		if !ev.At.After(now) {
			return fmt.Errorf("pending wake-up of user %d at %v is not after the snapshot time %v",
				f.userLo+int(ev.Idx), ev.At, now)
		}
		wakes[ev.Idx]++
		// No wake-up is scheduled at or after End (see build and
		// armNext); an older build's first wake-up could be.
		if ev.At.Before(f.end) {
			f.sim.AtCall(ev.At, runUserWake, &f.uargs[ev.Idx])
		}
	case "replace":
		if ev.Idx < 0 || int(ev.Idx) >= len(f.sargs) {
			return fmt.Errorf("pending replace references server %d of %d", ev.Idx, len(f.sargs))
		}
		f.sim.AtCall(ev.At, runReplace, &f.sargs[ev.Idx])
	case "sample":
		f.sim.AtCall(ev.At, runSample, f)
	case "policy":
		f.sim.AtCall(ev.At, runPolicy, &f.parg)
	case "gfw":
		if ev.Task == nil {
			return fmt.Errorf("pending censor task without payload")
		}
		return f.gfw.ScheduleTask(ev.At, *ev.Task)
	default:
		return fmt.Errorf("unknown pending event kind %q", ev.Kind)
	}
	return nil
}
