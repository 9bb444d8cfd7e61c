package netsim

import (
	"math"
	"math/bits"
	"time"

	"sslab/internal/metrics"
)

// The wheel geometry: three levels of 256 slots each. With the default
// 1-second tick the levels span ~4 minutes, ~18 hours and ~194 days —
// enough that a multi-month experiment never overflows (and anything
// beyond the top level falls back to the Sim heap, which is always
// correct, just not O(1)).
const (
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits
	wheelLevels = 3
	wheelWords  = wheelSlots / 64
)

// wentry is one deferred callback parked in the wheel. It carries the
// exact target time, so parking in a coarse slot never quantizes
// delivery: entries are handed to the Sim heap with their original at.
// The absolute tick is derived once, at Schedule.
type wentry struct {
	at   int64 // nanoseconds since Epoch
	tick int64 // at / Wheel.tick
	seq  uint64
	call func(any)
	arg  any
}

// anchorArg carries one anchor wake-up through the closure-free
// netsim.AtCall path; recycled via Wheel.anchorFree.
type anchorArg struct {
	w    *Wheel
	tick int64
}

// Wheel is a hierarchical timing wheel layered in front of a Sim's
// event heap. The heap is O(log n) per operation with n live events; a
// population-scale workload keeping 10⁵–10⁶ timers outstanding would
// pay that on every schedule. The wheel parks far-future callbacks in
// power-of-256 tick buckets (O(1) insert), cascades them toward level 0
// as virtual time approaches (each entry moves at most wheelLevels
// times), and releases them into the Sim heap only when they are due —
// so the heap holds just the imminent horizon and the per-event cost is
// O(1) amortized.
//
// Contract:
//   - Delivery is exact-time: entries fire at precisely the Schedule
//     time (wheel slots only defer *when the heap learns about them*).
//   - Entries with equal target times dispatch in Schedule order.
//   - The wheel is single-threaded and deterministic: given the same
//     schedule sequence it produces the same dispatch sequence, so it
//     is safe anywhere the Sim heap is.
//   - Steady state is allocation-free: slot slices and anchor args are
//     pooled, and arg is a caller-owned pointer (no boxing).
//
// The wheel wakes itself with "anchor" events on the Sim heap, always
// armed at the earliest tick at which some slot falls due. So when an
// anchor fires at tick k, nothing is overdue, and the only slots that
// can be due are the ones under each level's cursor (slot k>>(8·l) mod
// 256 at level l, due only when k is a multiple of 256^l): advance
// pours those and finds the next due tick with a circular search of
// each level's occupancy bitmap — constant work per anchor however
// many slots are occupied. The Sim cannot cancel events, so superseded
// anchors simply fire as no-ops (the cursor slots are empty).
type Wheel struct {
	sim  *Sim
	tick int64 // level-0 slot width in nanoseconds

	slots [wheelLevels][wheelSlots][]wentry
	occ   [wheelLevels][wheelWords]uint64

	count int
	seq   uint64

	// armed is the earliest outstanding anchor tick (math.MaxInt64 when
	// none); no occupied slot falls due before it. Later anchors may
	// also be outstanding; they fire as no-ops.
	armed      int64
	anchorFree []*anchorArg

	mScheduled *metrics.Counter
	mDirect    *metrics.Counter
	mCascaded  *metrics.Counter
	mAnchors   *metrics.Counter
}

// WheelOption configures a timing wheel at construction (see NewWheel).
type WheelOption func(*wheelConfig)

// wheelConfig holds the constructor knobs WheelOptions mutate.
type wheelConfig struct {
	tick time.Duration
}

// WithTick sets the level-0 slot width; entries closer than one tick go
// straight to the Sim heap. Non-positive values fall back to the
// 1-second default.
func WithTick(d time.Duration) WheelOption {
	return func(c *wheelConfig) { c.tick = d }
}

// NewWheel attaches a timing wheel to sim. With no options the level-0
// slot width is one second, matching the historical
// NewWheel(sim, time.Second) signature.
func NewWheel(sim *Sim, opts ...WheelOption) *Wheel {
	cfg := wheelConfig{tick: time.Second}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.tick <= 0 {
		cfg.tick = time.Second
	}
	w := &Wheel{sim: sim, tick: int64(cfg.tick), armed: math.MaxInt64}
	w.mScheduled = sim.Metrics.Counter("wheel.scheduled")
	w.mDirect = sim.Metrics.Counter("wheel.direct")
	w.mCascaded = sim.Metrics.Counter("wheel.cascaded")
	w.mAnchors = sim.Metrics.Counter("wheel.anchors")
	return w
}

// Tick returns the level-0 slot width.
func (w *Wheel) Tick() time.Duration { return time.Duration(w.tick) }

// Len returns the number of entries parked in the wheel (excluding
// those already released to the Sim heap).
func (w *Wheel) Len() int { return w.count }

// Schedule parks call(arg) for dispatch at absolute time at (clamped to
// now if in the past). It is the wheel counterpart of Sim.AtCall and
// shares its closure-free contract: arg should be a long-lived pointer.
//
//sslab:hotpath
func (w *Wheel) Schedule(at time.Time, call func(any), arg any) {
	w.schedule(nanos(at), call, arg)
}

// After parks call(arg) d from now.
func (w *Wheel) After(d time.Duration, call func(any), arg any) {
	w.schedule(w.sim.later(d), call, arg)
}

// schedule is Schedule on the int64 clock.
//
//sslab:hotpath
func (w *Wheel) schedule(at int64, call func(any), arg any) {
	w.mScheduled.Inc()
	w.seq++
	w.place(wentry{at: at, tick: at / w.tick, seq: w.seq, call: call, arg: arg})
}

// place files e into the level whose span covers its remaining delay.
// Entries due within one tick (or in the past, or beyond the top
// level's span) bypass the wheel entirely.
//
//sslab:hotpath
func (w *Wheel) place(e wentry) {
	cur := w.sim.now / w.tick
	delta := e.tick - cur
	if delta < 1 || delta >= wheelSlots<<(wheelBits*(wheelLevels-1)) {
		if delta < 1 && w.armed == cur {
			// The anchor for this tick is still queued behind the
			// event now running, and the entries it would release are
			// due now too: release them first, as the anchor would,
			// so they keep their Schedule order ahead of e.
			w.armed = math.MaxInt64
			w.advance(cur)
		}
		w.mDirect.Inc()
		w.sim.push(event{at: e.at, call: e.call, arg: e.arg})
		return
	}
	level := 0
	for delta >= wheelSlots<<(wheelBits*level) {
		level++
	}
	slot := int(e.tick>>(wheelBits*level)) & (wheelSlots - 1)
	w.slots[level][slot] = append(w.slots[level][slot], e) //sslab:allow-hotpath slot backing arrays are retained by pour (list[:0]) and stop growing at steady state
	w.occ[level][slot>>6] |= 1 << (slot & 63)
	w.count++
	w.arm(dueOf(level, e.tick))
}

// dueOf is the tick at which a level's slot holding an entry at tick T
// must be processed: the entry's own tick at level 0, the slot's start
// boundary above (where its contents cascade down).
func dueOf(level int, T int64) int64 {
	shift := wheelBits * level
	return (T >> shift) << shift
}

// arm schedules an anchor wake-up at tick d unless an earlier (or
// equal) anchor is already outstanding.
//
//sslab:hotpath
func (w *Wheel) arm(d int64) {
	if d >= w.armed {
		return
	}
	w.armed = d
	var a *anchorArg
	if n := len(w.anchorFree); n > 0 {
		a = w.anchorFree[n-1]
		w.anchorFree = w.anchorFree[:n-1]
		a.w, a.tick = w, d
	} else {
		a = &anchorArg{w: w, tick: d}
	}
	w.mAnchors.Inc()
	w.sim.push(event{at: d * w.tick, call: runWheelAnchor, arg: a})
}

// runWheelAnchor is the netsim.AtCall trampoline for anchor wake-ups.
//
//sslab:hotpath
func runWheelAnchor(x any) {
	a := x.(*anchorArg)
	w, k := a.w, a.tick
	a.w = nil
	w.anchorFree = append(w.anchorFree, a)
	if k == w.armed {
		w.armed = math.MaxInt64
	}
	w.advance(k)
}

// advance processes the slots due at tick cur — releasing level-0
// entries to the Sim heap and cascading higher-level slots downward —
// then re-arms for the next due tick. Only cursor slots can be due (see
// Wheel), and a level-l cursor slot only when cur sits on a level-l
// boundary; otherwise it holds entries one full turn ahead.
//
//sslab:hotpath
func (w *Wheel) advance(cur int64) {
	// Highest level first, so cascaded entries land in lower levels
	// before those are poured; they never land under a cursor.
	for l := wheelLevels - 1; l >= 0; l-- {
		shift := wheelBits * l
		if cur&(1<<shift-1) != 0 {
			continue
		}
		slot := int(cur>>shift) & (wheelSlots - 1)
		if w.occ[l][slot>>6]&(1<<(slot&63)) != 0 {
			w.pour(l, slot)
		}
	}
	// Re-arm for the earliest remaining boundary: per level, the first
	// occupied slot after the cursor, circularly (the cursor slot itself
	// last, a full turn ahead).
	due := int64(math.MaxInt64)
	for l := 0; l < wheelLevels; l++ {
		shift := wheelBits * l
		base := cur >> shift
		if n := w.nextOccupied(l, int(base)&(wheelSlots-1)); n > 0 {
			if d := (base + int64(n)) << shift; d < due {
				due = d
			}
		}
	}
	if due != math.MaxInt64 {
		w.arm(due)
	}
}

// nextOccupied returns the circular distance (1..256) from slot c to
// the next occupied slot of a level, or 0 when the level is empty.
func (w *Wheel) nextOccupied(level, c int) int {
	occ := &w.occ[level]
	start := (c + 1) & (wheelSlots - 1)
	wd, b := start>>6, uint(start&63)
	for i := 0; i <= wheelWords; i++ {
		m := occ[(wd+i)&(wheelWords-1)]
		switch i {
		case 0:
			m &^= 1<<b - 1 // the start word from slot start on
		case wheelWords:
			m &= 1<<b - 1 // wrapped back to it: the slots before start
		}
		if m != 0 {
			slot := ((wd+i)&(wheelWords-1))<<6 + bits.TrailingZeros64(m)
			return (slot-c-1)&(wheelSlots-1) + 1
		}
	}
	return 0
}

// pour empties one slot: level 0 releases entries to the Sim heap in
// (at, Schedule-order) order; higher levels re-place entries one level
// down (or directly onto the heap if now imminent).
//
//sslab:hotpath
func (w *Wheel) pour(level, slot int) {
	list := w.slots[level][slot]
	w.slots[level][slot] = list[:0]
	w.occ[level][slot>>6] &^= 1 << (slot & 63)
	if level == 0 {
		sortEntries(list)
		for i := range list {
			w.count--
			w.sim.push(event{at: list[i].at, call: list[i].call, arg: list[i].arg})
		}
	} else {
		w.mCascaded.Add(int64(len(list)))
		for i := range list {
			w.count--
			w.place(list[i])
		}
	}
	// Drop callback/arg references held by the retained backing array.
	for i := range list {
		list[i] = wentry{}
	}
}

// sortEntries insertion-sorts a slot by (at, seq). Slots are small and
// near-sorted (append order is Schedule order), so this is cheap and
// allocation-free; it makes equal-time dispatch order equal Schedule
// order even when entries reached the slot through different levels.
//
//sslab:hotpath
func sortEntries(list []wentry) {
	for i := 1; i < len(list); i++ {
		e := list[i]
		j := i - 1
		for j >= 0 && (list[j].at > e.at || (list[j].at == e.at && list[j].seq > e.seq)) {
			list[j+1] = list[j]
			j--
		}
		list[j+1] = e
	}
}
