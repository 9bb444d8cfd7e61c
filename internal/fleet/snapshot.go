package fleet

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"sort"
	"time"

	"sslab/internal/bloom"
	"sslab/internal/gfw"
	"sslab/internal/netsim"
	"sslab/internal/replay"
	"sslab/internal/stats"
	"sslab/internal/trafficgen"
)

// Snapshot format: the magic string, a big-endian uint32 version, then
// a gob-encoded engineSnap. The version bumps whenever the DTO layout
// changes incompatibly; Restore rejects unknown versions rather than
// guessing. Snapshot *bytes* are not canonical (gob serializes map-
// backed sketch state in arbitrary order) — the pinned invariant is
// that a restored engine's continued run reports byte-identically to
// an uninterrupted one, which the snapshot round-trip tests and the CI
// resume smoke enforce.
const (
	snapMagic   = "SSLABSNAP"
	snapVersion = 1
)

// engineSnap is the full serialized engine: the science config (the
// plan is re-derived from it) and each unit's state, in unit order.
type engineSnap struct {
	Config Config
	Now    time.Time
	Units  []unitSnap
}

// unitSnap is one unit's complete mutable state at a quiescent RunTo
// boundary. Structure (hosts, plan, metrics bindings) is rebuilt from
// Config; only state that evolves during a run is stored.
type unitSnap struct {
	// Packed per-user state, parallel arrays indexed by local user.
	URng         []uint64
	UServer      []int32
	UPhase       []int16
	UWl          []uint8
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
	GapQ    stats.Quantile

	PolicyNext int

	TG  trafficgen.RNGState
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
// and the replay memory of its long-lived host.
type serverSnap struct {
	Ep        netsim.Endpoint
	Activated time.Time
	FirstFail time.Time
	Replacing bool
	Seen      bloom.FilterState
	// Filter is the reaction engine's replay-defense state (Shadowsocks
	// servers only; nil otherwise).
	Filter *replay.State
}

// epochSnap is one endpoint activation record.
type epochSnap struct {
	EP   netsim.Endpoint
	At   time.Time
	Impl int32
	Srv  int32
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
// Two documented refusals: impaired runs (per-link PRNG positions and
// in-flight delayed deliveries are not serializable) and engines that
// already reported (Report's reduction consumes pending block
// latencies, so the state is no longer the mid-run state).
func (e *Engine) Snapshot() ([]byte, error) {
	if e.rep != nil {
		return nil, fmt.Errorf("fleet: cannot snapshot after Report — the reduction already consumed pending state")
	}
	if e.cfg.Impair != nil {
		return nil, fmt.Errorf("fleet: cannot snapshot an impaired run (per-link PRNG state is not serializable)")
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
	if ver != snapVersion {
		return nil, fmt.Errorf("fleet: snapshot version %d not supported (want %d)", ver, snapVersion)
	}
	var snap engineSnap
	if err := gob.NewDecoder(bytes.NewReader(data[len(snapMagic)+4:])).Decode(&snap); err != nil {
		return nil, fmt.Errorf("fleet: decoding snapshot: %w", err)
	}
	return newEngine(snap.Config, &snap, opts)
}

// capture serializes one unit. The unit must be quiescent (its
// simulator stopped at a RunUntil boundary), which RunTo guarantees.
func (f *Fleet) capture() (unitSnap, error) {
	n := len(f.users)
	s := unitSnap{
		URng:         make([]uint64, n),
		UServer:      make([]int32, n),
		UPhase:       make([]int16, n),
		UWl:          make([]uint8, n),
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
		GapQ:         *f.gapQ,
		PolicyNext:   f.policyNext,
		TG:           f.tg.CaptureRNG(),
		GFW:          f.gfw.CaptureState(),
		Net:          f.net.CaptureState(),
	}
	for i := range f.users {
		u := &f.users[i]
		s.URng[i] = u.rng
		s.UServer[i] = u.server
		s.UPhase[i] = u.phaseMin
		s.UWl[i] = u.wl
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
			Seen:      srv.host.seen.State(),
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
		s.Epochs = append(s.Epochs, epochSnap{EP: ep, At: e.at, Impl: e.impl, Srv: e.srv})
	}
	sort.Slice(s.Epochs, func(i, j int) bool {
		a, b := s.Epochs[i].EP, s.Epochs[j].EP
		if a.IP != b.IP {
			return a.IP < b.IP
		}
		return a.Port < b.Port
	})

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
// snapshot state and re-arms its pending events. The sequence matters:
// the simulator's clock is advanced to the snapshot time first (so
// nothing is clamped into the past), state is overwritten second, and
// events are re-armed last — heap events in original sequence order,
// which reproduces the captured run's dispatch order exactly, then any
// wheel entries of an older snapshot in their original order.
func (f *Fleet) restore(s *unitSnap, now time.Time) error {
	if len(s.URng) != len(f.users) {
		return fmt.Errorf("snapshot has %d users, plan builds %d", len(s.URng), len(f.users))
	}
	if len(s.Servers) != len(f.servers) {
		return fmt.Errorf("snapshot has %d servers, plan builds %d", len(s.Servers), len(f.servers))
	}
	if len(s.ImplEver) != len(f.implEver) {
		return fmt.Errorf("snapshot has %d mix rows, plan builds %d", len(s.ImplEver), len(f.implEver))
	}

	// 1. Advance the empty simulator to the snapshot time.
	f.sim.RunUntil(now)

	// 2. Overwrite mutable state.
	for i := range f.users {
		f.users[i] = user{
			rng:         s.URng[i],
			server:      s.UServer[i],
			phaseMin:    s.UPhase[i],
			wl:          s.UWl[i],
			blocked:     s.UBlocked[i],
			everBlocked: s.UEverBlocked[i],
		}
	}
	for j := range f.servers {
		srv := &f.servers[j]
		ss := &s.Servers[j]
		srv.ep = ss.Ep
		srv.activated = ss.Activated
		srv.firstFail = ss.FirstFail
		srv.replacing = ss.Replacing
		srv.host.seen = bloom.RestoreFilter(ss.Seen)
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
		f.epochs[es.EP] = epoch{at: es.At, impl: es.Impl, srv: es.Srv}
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
	ts, lat, life, gap := s.FlowsTS, s.LatQ, s.LifeQ, s.GapQ
	f.flowsTS, f.latencies, f.lifetimes, f.gapQ = &ts, &lat, &life, &gap
	f.policyNext = s.PolicyNext
	f.tg.RestoreRNG(s.TG)
	if err := f.gfw.RestoreState(s.GFW); err != nil {
		return err
	}
	f.net.RestoreState(s.Net)
	f.mBlockedUsers.Set(f.blockedNow)

	// 3. Re-arm pending events onto the heap, each list in its original
	// sequence order.
	for _, evs := range [][]eventSnap{s.HeapEvents, s.WheelEvents} {
		for _, ev := range evs {
			if err := f.rearm(ev); err != nil {
				return err
			}
		}
	}
	return nil
}

// rearm schedules one captured pending event on the unit's simulator.
func (f *Fleet) rearm(ev eventSnap) error {
	switch ev.Kind {
	case "wake":
		if ev.Idx < 0 || int(ev.Idx) >= len(f.uargs) {
			return fmt.Errorf("pending wake references user %d of %d", ev.Idx, len(f.uargs))
		}
		f.sim.AtCall(ev.At, runUserWake, &f.uargs[ev.Idx])
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
