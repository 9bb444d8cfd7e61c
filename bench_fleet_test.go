// BenchmarkFleet measures the population-scale engine: timers on the
// netsim event heap in steady state (must stay at 0 allocs/op) and a
// complete small fleet run (whose per-run allocation count is pinned,
// so a per-wakeup allocation sneaking into the user hot path fails the
// budget by three orders of magnitude, not by noise).
//
// Budgets live in BENCH_fleet.json, enforced by TestFleetAllocBudgets
// and the CI bench-smoke job.
package sslab_test

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"sslab/internal/fleet"
	"sslab/internal/gfw"
	"sslab/internal/netsim"
)

// TestFleetAcceptance is the ISSUE's population-scale acceptance run —
// 100k users for 24 virtual hours at the defaults — gated behind
// FLEET_ACCEPTANCE=1 because it takes tens of seconds. Targets: under
// 60 s wall and under 2 GB memory on one core.
func TestFleetAcceptance(t *testing.T) {
	if os.Getenv("FLEET_ACCEPTANCE") == "" {
		t.Skip("set FLEET_ACCEPTANCE=1 to run the 100k-user acceptance measurement")
	}
	start := time.Now()
	rep, err := fleet.Run(fleet.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	t.Logf("wall %.1fs, heap %.0f MB, sys %.0f MB", wall.Seconds(),
		float64(m.HeapAlloc)/1e6, float64(m.Sys)/1e6)
	t.Logf("\n%s", rep.Render())
	if wall > 60*time.Second {
		t.Errorf("acceptance run took %.1fs, target < 60s", wall.Seconds())
	}
	if m.Sys > 2e9 {
		t.Errorf("acceptance run used %.1f GB, target < 2 GB", float64(m.Sys)/1e9)
	}
}

// TestFleetSnapshotAcceptance measures the snapshot subsystem at
// population scale: the 100k-user acceptance fleet run to the middle
// of its 24-hour horizon, serialized, and restored. It logs snapshot
// size and save/restore wall time — the numbers recorded in
// BENCH_fleet.json — and is gated with the other acceptance runs.
func TestFleetSnapshotAcceptance(t *testing.T) {
	if os.Getenv("FLEET_ACCEPTANCE") == "" {
		t.Skip("set FLEET_ACCEPTANCE=1 to run the 100k-user snapshot measurement")
	}
	e, err := fleet.NewEngine(fleet.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunTo(netsim.Epoch.Add(12 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	data, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	save := time.Since(start)
	start = time.Now()
	if _, err := fleet.Restore(data); err != nil {
		t.Fatal(err)
	}
	restore := time.Since(start)
	t.Logf("100k users at T=12h: snapshot %.1f MB, save %.2fs, restore %.2fs",
		float64(len(data))/1e6, save.Seconds(), restore.Seconds())
}

// TestFleetScaling is the sharded engine's full-scale acceptance run:
// one million users for seven virtual days (168 h), split over eight
// space shards, once per worker-pool size. It logs the wall-clock
// scaling curve recorded in BENCH_fleet.json and verifies that every
// pool size reproduces the workers=1 report byte for byte. Gated
// behind FLEET_SCALE=1: each point takes tens of minutes on one core,
// and on a single-CPU host the curve documents byte-identity and
// sharding overhead rather than speedup (see BENCH_fleet.json).
func TestFleetScaling(t *testing.T) {
	if os.Getenv("FLEET_SCALE") == "" {
		t.Skip("set FLEET_SCALE=1 to run the million-user scaling measurement")
	}
	cfg := fleet.Config{
		Seed:           1,
		Users:          1000000,
		UsersPerServer: 50,
		Hours:          168,
		Shards:         8,
	}
	var golden []byte
	for _, workers := range []int{1, 8} {
		start := time.Now()
		rep, err := fleet.Run(cfg, fleet.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		wall := time.Since(start)
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if golden == nil {
			golden = b
		} else if !bytes.Equal(b, golden) {
			t.Errorf("workers=%d report diverged from workers=1", workers)
		}
		t.Logf("workers=%d: wall %.1fs, heap %.0f MB, sys %.0f MB, blocked-user fraction %.4f",
			workers, wall.Seconds(), float64(m.HeapAlloc)/1e6,
			float64(m.Sys)/1e6, rep.BlockedUserFraction)
	}
}

func BenchmarkFleet(b *testing.B) {
	b.Run("TimerSchedule", benchTimerSchedule)
	b.Run("TimerScheduleSparse", benchTimerScheduleSparse)
	b.Run("Run2k", benchFleetRun2k)
	b.Run("Run2kSharded", benchFleetRun2kSharded)
	b.Run("SnapshotSave", benchSnapshotSave)
	b.Run("SnapshotRestore", benchSnapshotRestore)
}

func nopTimerFire(any) {}

// benchTimerSchedule schedules timers with Sim.AtCall, as the fleet
// does: a dense stream of timers with delays from 1 s to 10 min, drained
// through the simulator. One op = one timer scheduled and fired. A
// warm-up round pre-grows the event heap so the timed region measures
// steady state.
func benchTimerSchedule(b *testing.B) {
	sim := netsim.NewSim()
	round := func(n int) {
		base := sim.Now()
		for i := 0; i < n; i++ {
			sim.AtCall(base.Add(time.Duration(1+i%601)*time.Second), nopTimerFire, nil)
		}
		sim.RunUntil(base.Add(602 * time.Second))
	}
	round(200000)
	b.ReportAllocs()
	b.ResetTimer()
	round(b.N)
}

// sparseMeanGap is a fleet user's mean wake-up gap at the default
// diurnal peak of 2 flows per hour.
const sparseMeanGap = 30 * time.Minute

// sparseUnit is benchTimerScheduleSparse's state: one simulator
// carrying 750 self-rescheduling timers — one regional fleet unit's
// users — and the number of schedules left in the current round.
type sparseUnit struct {
	sim    *netsim.Sim
	left   int
	timers []sparseTimer
}

// sparseTimer is one user's Poisson wake-up chain, drawing its gaps
// from an inline SplitMix64 stream.
type sparseTimer struct {
	s   *sparseUnit
	rng uint64
}

func (t *sparseTimer) gap() time.Duration {
	t.rng += 0x9e3779b97f4a7c15
	z := t.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	u := float64((z^(z>>31))>>11) / (1 << 53)
	return time.Duration(-math.Log1p(-u) * float64(sparseMeanGap))
}

func fireSparseTimer(x any) {
	t := x.(*sparseTimer)
	s := t.s
	if s.left == 0 {
		return
	}
	s.left--
	s.sim.AtCall(s.sim.Now().Add(t.gap()), fireSparseTimer, t)
}

// round schedules and fires exactly n timers: the chains start
// staggered over one mean gap and reschedule themselves until n
// schedules are spent, then the simulator drains.
func (s *sparseUnit) round(n int) {
	s.left = n
	base := s.sim.Now()
	for i := range s.timers {
		if s.left == 0 {
			break
		}
		s.left--
		at := base.Add(time.Duration(i) * sparseMeanGap / time.Duration(len(s.timers)))
		s.sim.AtCall(at, fireSparseTimer, &s.timers[i])
	}
	s.sim.Run()
}

// benchTimerScheduleSparse schedules timers at the density of one unit
// of a regional fleet run (6000 users over 4 regions × 2 shards): 750
// timers with 30-minute mean gaps on one simulator, so the heap never
// holds more than 750 events. One op = one timer scheduled and fired; a
// warm-up round grows the heap, so the timed region must allocate
// nothing.
func benchTimerScheduleSparse(b *testing.B) {
	s := &sparseUnit{sim: netsim.NewSim(), timers: make([]sparseTimer, 750)}
	for i := range s.timers {
		s.timers[i] = sparseTimer{s: s, rng: uint64(i)}
	}
	s.round(200000)
	b.ReportAllocs()
	b.ResetTimer()
	s.round(b.N)
}

// benchFleetRun2k runs a complete 2000-user, 3-virtual-hour fleet
// experiment per op. The config is fixed-seed, so the allocation count
// is deterministic: construction (user/server slices, censor state) plus
// one netsim.Flow per connection, and nothing per wake-up.
func benchFleetRun2k(b *testing.B) {
	cfg := fleet.Config{
		Seed:           1,
		Users:          2000,
		UsersPerServer: 50,
		Hours:          3,
		BucketMin:      30,
		GFW:            gfw.Config{PoolSize: 2000},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := fleet.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// snapBenchEngine builds the Run2k engine and advances it to the
// middle of the horizon, where per-user pending wake-ups and in-flight
// censor state are at steady-state density — the worst case a snapshot
// has to serialize.
func snapBenchEngine(b *testing.B) *fleet.Engine {
	b.Helper()
	e, err := fleet.NewEngine(fleet.Config{
		Seed:           1,
		Users:          2000,
		UsersPerServer: 50,
		Hours:          3,
		BucketMin:      30,
		GFW:            gfw.Config{PoolSize: 2000},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := e.RunTo(netsim.Epoch.Add(90 * time.Minute)); err != nil {
		b.Fatal(err)
	}
	return e
}

// benchSnapshotSave serializes the mid-run 2000-user engine once per
// op. Snapshot is read-only (capture never mutates unit state), so
// repeated saves of the same engine are identical; the reported
// snap-bytes metric is the serialized size recorded in
// BENCH_fleet.json.
func benchSnapshotSave(b *testing.B) {
	e := snapBenchEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	var size int
	for i := 0; i < b.N; i++ {
		data, err := e.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		size = len(data)
	}
	b.ReportMetric(float64(size), "snap-bytes")
}

// benchSnapshotRestore rebuilds a live engine from the same mid-run
// snapshot once per op: decode, reconstruct every unit's simulator,
// censor and population state, and re-arm the pending events.
func benchSnapshotRestore(b *testing.B) {
	e := snapBenchEngine(b)
	data, err := e.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fleet.Restore(data); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFleetRun2kSharded is the same population split over four space
// shards: four independent simulators, censors and networks plus the
// report merge. It runs the shards sequentially (WithWorkers(1))
// so the allocation count stays as deterministic as Run2k's — on a
// multi-worker pool the Go runtime's own scheduling allocations
// (goroutine parking under CPU contention) leak into allocs/op and
// vary with machine load, which would make the budget flaky. Parallel
// execution is pinned by the byte-identity tests under the race
// detector instead; this budget pins the sharded engine's per-shard
// construction and merge overhead.
func benchFleetRun2kSharded(b *testing.B) {
	cfg := fleet.Config{
		Seed:           1,
		Users:          2000,
		UsersPerServer: 50,
		Hours:          3,
		BucketMin:      30,
		Shards:         4,
		GFW:            gfw.Config{PoolSize: 2000},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := fleet.Run(cfg, fleet.WithWorkers(1)); err != nil {
			b.Fatal(err)
		}
	}
}
