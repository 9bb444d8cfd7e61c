package netsim

import (
	"math/rand"
	"testing"
	"time"

	"sslab/internal/seedfork"
)

// fireLog records dispatches as (virtual time, id) pairs.
type fireLog struct {
	sim *Sim
	got []fireRec
}

type fireRec struct {
	at time.Time
	id int
}

type fireArg struct {
	log *fireLog
	id  int
}

func runFire(x any) {
	a := x.(*fireArg)
	a.log.got = append(a.log.got, fireRec{at: a.log.sim.Now(), id: a.id})
}

// TestWheelMatchesHeap schedules the same randomized timeline — unique
// times spanning all three wheel levels plus the direct paths — through
// a Wheel in one sim and directly onto the heap in another, and
// requires identical dispatch sequences. The wheel's contract is that
// it is behaviorally indistinguishable from the heap.
func TestWheelMatchesHeap(t *testing.T) {
	const n = 5000
	rng := rand.New(rand.NewSource(42))
	offsets := make([]time.Duration, n)
	for i := range offsets {
		var span time.Duration
		switch i % 4 {
		case 0: // level 0: under 256s
			span = 250 * time.Second
		case 1: // level 1: under ~18h
			span = 17 * time.Hour
		case 2: // level 2: days
			span = 40 * 24 * time.Hour
		default: // overflow: beyond the top level's span
			span = 300 * 24 * time.Hour
		}
		// Unique sub-second components make the total order unambiguous.
		offsets[i] = time.Duration(rng.Int63n(int64(span))) + time.Duration(i)*time.Nanosecond
	}

	runTimeline := func(useWheel bool) []fireRec {
		sim := NewSim()
		log := &fireLog{sim: sim}
		wheel := NewWheel(sim)
		args := make([]fireArg, n)
		for i, off := range offsets {
			args[i] = fireArg{log: log, id: i}
			if useWheel {
				wheel.Schedule(Epoch.Add(off), runFire, &args[i])
			} else {
				sim.AtCall(Epoch.Add(off), runFire, &args[i])
			}
		}
		sim.Run()
		return log.got
	}

	heap := runTimeline(false)
	if len(heap) != n {
		t.Fatalf("heap dispatched %d events, want %d", len(heap), n)
	}
	requireSameDispatch(t, "timeline", heap, runTimeline(true))
}

// TestWheelExactTimes verifies parking in coarse slots never quantizes
// delivery: each callback runs at precisely its Schedule time, in time
// order. The later cases start at 100 s, off every level-1 boundary, so
// the 65,600 s entry parks in level 1's cursor slot one full turn ahead:
// re-arming must find it — alone in its level, and after a nearer
// level-1 entry — not skip it or let it shadow nearer slots.
func TestWheelExactTimes(t *testing.T) {
	for _, tc := range []struct {
		start   time.Duration
		offsets []time.Duration
	}{
		{0, []time.Duration{
			1500 * time.Millisecond,
			90*time.Second + 123*time.Millisecond,
			3*time.Hour + 7*time.Nanosecond,
			20*24*time.Hour + time.Microsecond,
		}},
		{100 * time.Second, []time.Duration{150 * time.Second, 65600 * time.Second}},
		{100 * time.Second, []time.Duration{150 * time.Second, 1000 * time.Second, 65600 * time.Second}},
	} {
		sim := NewSim()
		w := NewWheel(sim)
		log := &fireLog{sim: sim}
		sim.RunUntil(Epoch.Add(tc.start))
		args := make([]fireArg, len(tc.offsets))
		for i, off := range tc.offsets {
			args[i] = fireArg{log: log, id: i}
			w.Schedule(Epoch.Add(off), runFire, &args[i])
		}
		sim.Run()
		if len(log.got) != len(tc.offsets) {
			t.Fatalf("start %v: fired %v, want each of %v", tc.start, log.got, tc.offsets)
		}
		for i, off := range tc.offsets {
			if log.got[i].id != i || !log.got[i].at.Equal(Epoch.Add(off)) {
				t.Errorf("start %v: dispatch %d was (%v, id %d), want (%v, id %d)",
					tc.start, i, log.got[i].at, log.got[i].id, Epoch.Add(off), i)
			}
		}
	}
}

// TestWheelEqualTimeOrder pins the tie-break contract: entries with
// equal target times dispatch in Schedule order, even when they reach
// level 0 through different levels (one parked far ahead and cascaded,
// one scheduled late directly into level 0).
func TestWheelEqualTimeOrder(t *testing.T) {
	sim := NewSim()
	w := NewWheel(sim)
	log := &fireLog{sim: sim}
	target := Epoch.Add(2*time.Hour + 300*time.Millisecond)

	args := make([]fireArg, 4)
	for i := range args {
		args[i] = fireArg{log: log, id: i}
	}
	// 0 and 1 park in level 1 and cascade; then a hop to t-30s makes 2
	// and 3 level-0 placements for the same instant.
	w.Schedule(target, runFire, &args[0])
	w.Schedule(target, runFire, &args[1])
	hop := target.Add(-30 * time.Second)
	sim.At(hop, func() {
		w.Schedule(target, runFire, &args[2])
		w.Schedule(target, runFire, &args[3])
	})
	sim.Run()
	for i := range args {
		if log.got[i].id != i {
			t.Fatalf("dispatch order %v, want Schedule order 0,1,2,3", log.got)
		}
	}

	// Tick boundaries, one case per level: entry 0 is parked for
	// exactly the whole-second tick T, and an event dispatching at T
	// ahead of the wheel's anchor schedules entry 1 for the same
	// instant. Entry 1 goes straight to the heap, so the wheel must
	// release entry 0 first to keep Schedule order — as the heap does.
	for _, d := range []time.Duration{100 * time.Second, 256 * time.Second, 65536 * time.Second} {
		run := func(useWheel bool) []fireRec {
			sim := NewSim()
			w := NewWheel(sim)
			log := &fireLog{sim: sim}
			sched := sim.AtCall
			if useWheel {
				sched = w.Schedule
			}
			args := []fireArg{{log, 0}, {log, 1}}
			at := Epoch.Add(d)
			sim.At(at, func() { sched(at, runFire, &args[1]) })
			sched(at, runFire, &args[0])
			sim.Run()
			return log.got
		}
		requireSameDispatch(t, d.String(), run(false), run(true))
	}
}

// requireSameDispatch fails unless the heap and the wheel fired the
// same (time, id) sequence.
func requireSameDispatch(t *testing.T, name string, heap, viaWheel []fireRec) {
	t.Helper()
	if len(heap) != len(viaWheel) {
		t.Fatalf("%s: heap fired %d, wheel fired %d", name, len(heap), len(viaWheel))
	}
	for i := range heap {
		if heap[i] != viaWheel[i] {
			t.Fatalf("%s: dispatch %d diverged: heap (%v, %d), wheel (%v, %d)",
				name, i, heap[i].at, heap[i].id, viaWheel[i].at, viaWheel[i].id)
		}
	}
}

// chainState is a self-rescheduling timer chain: each firing draws its
// next gap from a private deterministic stream, mimicking the fleet's
// per-user wake-up pattern.
type chainState struct {
	log   *fireLog
	sched func(at time.Time, call func(any), arg any)
	rng   *rand.Rand
	gap   func(c *chainState) time.Duration
	end   time.Time // no rescheduling at or past end (zero: no horizon)
	id    int
	left  int
}

func runChain(x any) {
	c := x.(*chainState)
	c.log.got = append(c.log.got, fireRec{at: c.log.sim.Now(), id: c.id})
	if c.left == 0 {
		return
	}
	c.left--
	next := c.log.sim.Now().Add(c.gap(c))
	if c.end.IsZero() || next.Before(c.end) {
		c.sched(next, runChain, c)
	}
}

// TestWheelSelfRescheduling compares wheel and heap under the workload
// the wheel exists for: many concurrent chains rescheduling themselves
// from inside their own callbacks. The cases cover the shapes the
// constant-time advance must get right: a dense wheel, a sparse one the
// size of a regional fleet unit, entries that all land on tick
// boundaries (so ties are decided by Schedule order alone), gaps past
// the top level's ~194-day span, and a run split by RunUntil at a
// horizon between anchors.
func TestWheelSelfRescheduling(t *testing.T) {
	const unbounded = 1 << 30
	cases := []struct {
		name         string
		chains, hops int
		start        func(i int) time.Duration
		gap          func(c *chainState) time.Duration
		end, split   time.Duration // zero: no horizon / one Run
	}{
		{
			name: "dense", chains: 60, hops: 50,
			start: func(i int) time.Duration { return time.Duration(i) * time.Second },
			gap: func(c *chainState) time.Duration {
				return time.Duration(c.rng.Int63n(int64(40*time.Minute))) + time.Duration(c.id+1)*time.Nanosecond
			},
		},
		{
			name: "sparse regional unit", chains: 750, hops: unbounded,
			start: func(i int) time.Duration { return time.Duration(i) * 30 * time.Minute / 750 },
			gap: func(c *chainState) time.Duration {
				return time.Duration(c.rng.ExpFloat64() * float64(30*time.Minute))
			},
			end: 24 * time.Hour,
		},
		{
			name: "whole-second gaps", chains: 1000, hops: 20,
			start: func(i int) time.Duration { return time.Duration(i%300) * time.Second },
			gap: func(c *chainState) time.Duration {
				return time.Duration(c.rng.Intn(1200)) * time.Second
			},
		},
		{
			name: "beyond the top level", chains: 40, hops: 10,
			start: func(i int) time.Duration { return time.Duration(i) * time.Hour },
			gap: func(c *chainState) time.Duration {
				return time.Duration(1+c.rng.Intn(400*24)) * time.Hour
			},
		},
		{
			name: "RunUntil between anchors", chains: 300, hops: 40,
			start: func(i int) time.Duration { return time.Duration(i) * 7 * time.Second },
			gap: func(c *chainState) time.Duration {
				return time.Duration(c.rng.ExpFloat64() * float64(20*time.Minute))
			},
			split: 5*time.Hour + 300*time.Millisecond,
		},
	}
	for _, tc := range cases {
		run := func(useWheel bool) []fireRec {
			sim := NewSim()
			log := &fireLog{sim: sim}
			w := NewWheel(sim)
			sched := sim.AtCall
			if useWheel {
				sched = w.Schedule
			}
			var end time.Time
			if tc.end > 0 {
				end = Epoch.Add(tc.end)
			}
			states := make([]chainState, tc.chains)
			for i := range states {
				states[i] = chainState{
					log: log, sched: sched, gap: tc.gap, end: end, id: i, left: tc.hops,
					rng: rand.New(rand.NewSource(seedfork.Fork(1000, "wheel.chain", int64(i)))),
				}
				sched(Epoch.Add(tc.start(i)), runChain, &states[i])
			}
			if tc.split > 0 {
				sim.RunUntil(Epoch.Add(tc.split))
				// The horizon is a dispatch-log marker, so the
				// comparison also pins what fired before it.
				log.got = append(log.got, fireRec{at: sim.Now(), id: -1})
			}
			sim.Run()
			return log.got
		}
		requireSameDispatch(t, tc.name, run(false), run(true))
	}
}

// TestWheelRunUntil verifies entries beyond a RunUntil horizon stay
// parked and fire on a later resume.
func TestWheelRunUntil(t *testing.T) {
	sim := NewSim()
	w := NewWheel(sim)
	log := &fireLog{sim: sim}
	args := []fireArg{{log, 0}, {log, 1}}
	w.Schedule(Epoch.Add(time.Hour), runFire, &args[0])
	w.Schedule(Epoch.Add(48*time.Hour), runFire, &args[1])

	sim.RunUntil(Epoch.Add(24 * time.Hour))
	if len(log.got) != 1 || log.got[0].id != 0 {
		t.Fatalf("after RunUntil(24h): fired %v, want only id 0", log.got)
	}
	if w.Len() != 1 {
		t.Fatalf("wheel holds %d entries, want 1", w.Len())
	}
	sim.Run()
	if len(log.got) != 2 || log.got[1].id != 1 {
		t.Fatalf("after Run: fired %v, want ids 0,1", log.got)
	}
}

// TestWheelPastSchedules go straight to the heap, clamped like Sim.At.
func TestWheelPastSchedules(t *testing.T) {
	sim := NewSim()
	w := NewWheel(sim)
	sim.RunUntil(Epoch.Add(time.Hour))
	log := &fireLog{sim: sim}
	a := fireArg{log, 7}
	w.Schedule(Epoch.Add(time.Minute), runFire, &a) // already past
	sim.Run()
	if len(log.got) != 1 || !log.got[0].at.Equal(Epoch.Add(time.Hour)) {
		t.Fatalf("past schedule fired %v, want clamped to now", log.got)
	}
	if w.Len() != 0 {
		t.Fatalf("wheel holds %d entries, want 0", w.Len())
	}
}
