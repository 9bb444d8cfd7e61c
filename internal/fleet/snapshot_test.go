package fleet

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"sslab/internal/gfw"
	"sslab/internal/netsim"
	"sslab/internal/region"
	"sslab/internal/seedfork"
)

// updateSnapFixture rewrites the committed fixture of the current
// snapshot version, testdata/resume-v2.snap. Run
//
//	go test ./internal/fleet -run TestSnapshotGoldenFixture -update-snapshot
//
// only together with a deliberate snapshot format change (and a
// snapVersion bump, after which the flag should write a new file): the
// fixtures exist to prove that engine and scheduler refactors still
// restore snapshots written by earlier builds. testdata/resume.snap, a
// version-1 snapshot, is never rewritten.
var updateSnapFixture = flag.Bool("update-snapshot", false, "rewrite testdata/resume-v2.snap")

// runEngineReport drives an engine to its end and marshals the report.
func runEngineReport(t *testing.T, e *Engine) []byte {
	t.Helper()
	if err := e.RunTo(e.End()); err != nil {
		t.Fatal(err)
	}
	rep, err := e.Report()
	if err != nil {
		t.Fatal(err)
	}
	return reportJSON(t, rep)
}

// TestEngineMatchesRun: holding a run open through the Engine API and
// driving it to the end in one step is Run, byte for byte.
func TestEngineMatchesRun(t *testing.T) {
	golden := reportJSON(t, mustRun(t, shardedCfg(21)))
	e, err := NewEngine(shardedCfg(21))
	if err != nil {
		t.Fatal(err)
	}
	if got := runEngineReport(t, e); !bytes.Equal(got, golden) {
		t.Fatal("Engine-driven run diverged from Run")
	}
}

// TestEngineStagedRunIdentity: advancing a run in many small RunTo
// steps (including repeated and backwards targets, which are no-ops)
// reports byte-identically to one straight shot.
func TestEngineStagedRunIdentity(t *testing.T) {
	golden := reportJSON(t, mustRun(t, smallCfg(22)))
	e, err := NewEngine(smallCfg(22))
	if err != nil {
		t.Fatal(err)
	}
	for h := 1; h <= 6; h++ {
		at := netsim.Epoch.Add(time.Duration(h) * time.Hour)
		if err := e.RunTo(at); err != nil {
			t.Fatal(err)
		}
		if err := e.RunTo(at.Add(-30 * time.Minute)); err != nil {
			t.Fatal(err) // backwards targets are no-ops
		}
	}
	rep, err := e.Report()
	if err != nil {
		t.Fatal(err)
	}
	if got := reportJSON(t, rep); !bytes.Equal(got, golden) {
		t.Fatal("staged run diverged from straight run")
	}
	// Report is cached: a second call returns the same object.
	again, err := e.Report()
	if err != nil {
		t.Fatal(err)
	}
	if again != rep {
		t.Fatal("Report must be cached after the first call")
	}
}

// resumedReport runs cfg to midpoint, snapshots, restores into a fresh
// engine, and finishes the run there.
func resumedReport(t *testing.T, cfg Config, opts ...Option) []byte {
	t.Helper()
	e, err := NewEngine(cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	mid := netsim.Epoch.Add(time.Duration(cfg.Hours) * time.Hour / 2)
	if err := e.RunTo(mid); err != nil {
		t.Fatal(err)
	}
	data, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Restore(data, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Now().Equal(mid) {
		t.Fatalf("restored engine at %v, want %v", r.Now(), mid)
	}
	return runEngineReport(t, r)
}

// TestSnapshotResumeByteIdentity pins the tentpole invariant: run to
// T, Snapshot, Restore, run to 2T must be byte-identical to an
// uninterrupted 2T run — at one shard and at several, with parallel
// workers on the restored engine.
func TestSnapshotResumeByteIdentity(t *testing.T) {
	for _, shards := range []int{1, 4} {
		cfg := smallCfg(31)
		cfg.Shards = shards
		golden := reportJSON(t, mustRun(t, cfg))
		if got := resumedReport(t, cfg, WithWorkers(2)); !bytes.Equal(got, golden) {
			t.Fatalf("shards=%d: resumed run diverged from uninterrupted run:\n%s\nvs\n%s",
				shards, got, golden)
		}
	}
}

// TestSnapshotResumeRegional: the resume invariant holds with a
// multi-region topology and a mid-run schedule whose events straddle
// the snapshot point.
func TestSnapshotResumeRegional(t *testing.T) {
	cfg := smallCfg(33)
	cfg.Shards = 2
	cfg.Regions = &region.Topology{Regions: []region.Region{
		{Name: "coastal", Weight: 2, Schedule: region.Schedule{
			{AtHours: 1, Kind: region.KindSensitivity, Value: 0.8},
			{AtHours: 4, Kind: region.KindSensitivity, Value: 0.1},
		}},
		{Name: "inland", Weight: 1, Schedule: region.Schedule{
			{AtHours: 2, Kind: region.KindPause},
			{AtHours: 5, Kind: region.KindResume},
		}},
	}}
	golden := reportJSON(t, mustRun(t, cfg))
	if got := resumedReport(t, cfg); !bytes.Equal(got, golden) {
		t.Fatal("regional resumed run diverged from uninterrupted run")
	}
}

// fixtureCfg is the configuration behind both snapshot fixtures: two
// regions over two shards (four units), an all-sspython mix with
// aggressive recording so censor tasks are in flight, and schedules
// whose events straddle the snapshot point at T = 3 h of the 6 h run.
func fixtureCfg() Config {
	cfg := smallCfg(41)
	cfg.Users = 100
	cfg.Shards = 2
	cfg.PeakFlowsPerHour = 6
	cfg.Mix = []ImplShare{{Impl: "sspython", Weight: 1}}
	cfg.GFW.Sensitivity = 1
	cfg.GFW.ReplayBase = 0.3
	cfg.Regions = &region.Topology{Regions: []region.Region{
		{Name: "coastal", Weight: 1, Schedule: region.Schedule{
			{AtHours: 2, Kind: region.KindSensitivity, Value: 0.2},
			{AtHours: 4, Kind: region.KindSensitivity, Value: 1},
		}},
		{Name: "inland", Weight: 1, GFW: &gfw.Config{Sensitivity: 0.6, ReplayBase: 0.3}, Schedule: region.Schedule{
			{AtHours: 2.5, Kind: region.KindPause},
			{AtHours: 3.5, Kind: region.KindResume},
		}},
	}}
	return cfg
}

// TestSnapshotGoldenFixture restores snapshot files written by earlier
// builds, finishes each run, and requires the report bytes of an
// uninterrupted run. resume.snap is version 1: its streams carry no
// register and are replayed, its user wake-ups sit in WheelEvents, and
// it still holds the fields later versions dropped (each user's
// server, phase and workload, each epoch's implementation, each
// server's Seen filter, the network's NextID). resume-v2.snap is
// version 2, whose built streams restore from their registers. Both pin
// the SSLABSNAP format (a layout change without a version bump fails to
// decode or diverges) and how restored heap events and wheel entries
// re-arm in the current scheduler.
func TestSnapshotGoldenFixture(t *testing.T) {
	cfg := fixtureCfg()
	mid := netsim.Epoch.Add(3 * time.Hour)
	if *updateSnapFixture {
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.RunTo(mid); err != nil {
			t.Fatal(err)
		}
		data, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("testdata", "resume-v2.snap"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden := reportJSON(t, mustRun(t, cfg))
	for _, c := range []struct {
		file string
		ver  uint32
	}{{"resume.snap", 1}, {"resume-v2.snap", 2}} {
		data, err := os.ReadFile(filepath.Join("testdata", c.file))
		if err != nil {
			t.Fatalf("reading fixture (run with -update-snapshot to create resume-v2.snap): %v", err)
		}
		if len(data) < len(snapMagic)+4 || binary.BigEndian.Uint32(data[len(snapMagic):]) != c.ver {
			t.Fatalf("%s is not a version-%d snapshot", c.file, c.ver)
		}
		r, err := Restore(data)
		if err != nil {
			t.Fatalf("%s: %v", c.file, err)
		}
		if !r.Now().Equal(mid) {
			t.Fatalf("%s restored at %v, want %v", c.file, r.Now(), mid)
		}
		if got := runEngineReport(t, r); !bytes.Equal(got, golden) {
			t.Fatalf("run resumed from %s diverged from an uninterrupted run:\n%s\nvs\n%s", c.file, got, golden)
		}
	}
}

// TestSnapshotRepeatedResume: snapshotting the *restored* engine and
// resuming again (a chain of three engines) still lands on the golden.
func TestSnapshotRepeatedResume(t *testing.T) {
	cfg := smallCfg(35)
	cfg.Shards = 3
	golden := reportJSON(t, mustRun(t, cfg))

	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for h := 2; h <= 4; h += 2 {
		if err := e.RunTo(netsim.Epoch.Add(time.Duration(h) * time.Hour)); err != nil {
			t.Fatal(err)
		}
		data, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if e, err = Restore(data); err != nil {
			t.Fatal(err)
		}
	}
	if got := runEngineReport(t, e); !bytes.Equal(got, golden) {
		t.Fatal("twice-resumed run diverged from uninterrupted run")
	}
}

// TestSnapshotRefusals: the two documented refusals, plus garbage input
// to Restore and stream states no run leaves behind.
func TestSnapshotRefusals(t *testing.T) {
	e, err := NewEngine(smallCfg(37))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunTo(e.End()); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Report(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Snapshot(); err == nil {
		t.Fatal("Snapshot after Report must fail (reduction consumed pending state)")
	}

	imp := smallCfg(37)
	imp.Impair = &netsim.LinkProfile{Loss: 0.01}
	ei, err := NewEngine(imp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ei.Snapshot(); err == nil {
		t.Fatal("Snapshot of an impaired run must fail")
	}

	if _, err := Restore(nil); err == nil {
		t.Fatal("Restore(nil) must fail")
	}
	if _, err := Restore([]byte("not a snapshot at all")); err == nil {
		t.Fatal("Restore of garbage must fail")
	}
	good, err := func() ([]byte, error) {
		e2, err := NewEngine(smallCfg(37))
		if err != nil {
			return nil, err
		}
		if err := e2.RunTo(netsim.Epoch.Add(time.Hour)); err != nil {
			return nil, err
		}
		return e2.Snapshot()
	}()
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), good...)
	bad[len(snapMagic)+3] = 99 // future version
	if _, err := Restore(bad); err == nil {
		t.Fatal("Restore must reject unknown snapshot versions")
	}

	// A trafficgen Read carry or register no run leaves behind is
	// refused, naming the unit.
	for _, c := range []struct {
		name string
		edit func(tg *seedfork.State)
	}{
		{"carry", func(tg *seedfork.State) { tg.ReadPos = -1 }},
		{"606-word register", func(tg *seedfork.State) { tg.Register = tg.Register[:606] }},
	} {
		snap := decodeSnap(t, good)
		if snap.Units[0].TG.Register == nil {
			t.Fatal("the trafficgen stream built no register in the first hour")
		}
		c.edit(&snap.Units[0].TG)
		if _, err := Restore(encodeSnap(t, snapVersion, snap)); err == nil || !strings.Contains(err.Error(), "unit 0") {
			t.Fatalf("Restore of an unreachable trafficgen %s: err = %v, want a unit 0 error", c.name, err)
		}
	}
}

// decodeSnap decodes the engine state of snapshot bytes.
func decodeSnap(t *testing.T, data []byte) engineSnap {
	t.Helper()
	var snap engineSnap
	if err := gob.NewDecoder(bytes.NewReader(data[len(snapMagic)+4:])).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// encodeSnap writes snap as snapshot bytes of the given version.
func encodeSnap(t *testing.T, ver uint32, snap engineSnap) []byte {
	t.Helper()
	buf := bytes.NewBuffer(binary.BigEndian.AppendUint32([]byte(snapMagic), ver))
	if err := gob.NewEncoder(buf).Encode(snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotRefusesStreamWithoutRegister: a version-2 snapshot whose
// trafficgen, censor or prober-pool stream is past draw 273 yet
// carries no register is refused, naming the stream. Restore used to
// replay such a stream from its seed for as many draws as the input
// claimed: about a second for the 2³⁰ draws here, hours for 2⁴⁰.
func TestSnapshotRefusesStreamWithoutRegister(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "resume-v2.snap"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		stream string
		edit   func(u *unitSnap)
	}{
		{"trafficgen", func(u *unitSnap) { u.TG.Draws, u.TG.Register = 1<<30, nil }},
		{"censor", func(u *unitSnap) { u.GFW.RNGDraws, u.GFW.RNGRegister = 1<<30, nil }},
		{"prober pool", func(u *unitSnap) { u.GFW.PoolDraws, u.GFW.PoolRegister = 1<<30, nil }},
	} {
		snap := decodeSnap(t, data)
		c.edit(&snap.Units[0])
		if _, err := Restore(encodeSnap(t, 2, snap)); err == nil || !strings.Contains(err.Error(), c.stream+" stream") {
			t.Errorf("Restore of a %s stream at draw 2³⁰ without its register: err = %v, want an error naming the stream", c.stream, err)
		}
	}
}

// TestSnapshotRestoreChecksCountsFirst: a snapshot whose Config plans
// more users than the snapshot holds is refused before any unit is
// planned or built, so the refusal allocates about what decoding does
// (2,000,000 users used to allocate 230 MB before the error; at 2⁴⁰
// planning alone would ask for 88 GB), and a unit whose per-user
// arrays disagree is refused with the count that differs.
func TestSnapshotRestoreChecksCountsFirst(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "resume-v2.snap"))
	if err != nil {
		t.Fatal(err)
	}
	for _, users := range []int{2_000_000, 1 << 40} {
		snap := decodeSnap(t, data)
		snap.Config.Users = users
		bad := encodeSnap(t, 2, snap)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Restore(bad)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("Restore with Config.Users %d accepted a snapshot of %d users", users, fixtureCfg().Users)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
			t.Errorf("Restore with Config.Users %d allocated %.1f MB before refusing: %v", users, float64(grew)/(1<<20), err)
		}
	}
	snap := decodeSnap(t, data)
	snap.Units[1].UBlocked = snap.Units[1].UBlocked[1:]
	if _, err := Restore(encodeSnap(t, 2, snap)); err == nil || !strings.Contains(err.Error(), "unit 1") || !strings.Contains(err.Error(), "blocked flags") {
		t.Errorf("Restore of a unit missing a user's blocked flag: err = %v, want a unit 1 error naming the blocked flags", err)
	}
}

// TestMergeUnmergeableTyped: satellite regression — Merge on a Report
// restored from JSON fails with the typed, documented sentinel,
// matchable via errors.Is from both sides of the merge.
func TestMergeUnmergeableTyped(t *testing.T) {
	rep := mustRun(t, smallCfg(39))
	var restored Report
	if err := json.Unmarshal(reportJSON(t, rep), &restored); err != nil {
		t.Fatal(err)
	}
	if err := restored.Merge(rep); !errors.Is(err, ErrUnmergeableReport) {
		t.Fatalf("restored.Merge(live) = %v, want ErrUnmergeableReport", err)
	}
	if err := rep.Merge(&restored); !errors.Is(err, ErrUnmergeableReport) {
		t.Fatalf("live.Merge(restored) = %v, want ErrUnmergeableReport", err)
	}
}

// TestSnapshotRefusesImpossibleWakeups: a user's state sits just before
// the draws of its one pending wake-up, which lies after the snapshot
// time, so restore refuses a second wake-up for a user (over the heap
// and a version-1 snapshot's wheel list together) and a wake-up at or
// before the snapshot time, naming the user by its global index. Both
// used to restore: the first drew the user's stream twice, the second
// was clamped to the snapshot time.
func TestSnapshotRefusesImpossibleWakeups(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "resume-v2.snap"))
	if err != nil {
		t.Fatal(err)
	}
	// The edits target unit 1's first pending wake-up: unit 1's users do
	// not start at 0, so its local and global indices differ.
	snap := decodeSnap(t, data)
	wake := slices.IndexFunc(snap.Units[1].HeapEvents, func(ev eventSnap) bool { return ev.Kind == "wake" })
	if wake < 0 {
		t.Fatal("unit 1 of the fixture has no pending wake-up")
	}
	cfg := snap.Config.withDefaults()
	plan, err := planRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lo, _ := plan.units[1].users(cfg)
	user := lo + int(snap.Units[1].HeapEvents[wake].Idx)
	for _, c := range []struct {
		name string
		edit func(u *unitSnap, i int, now time.Time)
		want string
	}{
		{"twice on the heap", func(u *unitSnap, i int, _ time.Time) {
			u.HeapEvents = append(u.HeapEvents, u.HeapEvents[i])
		}, "user %d has 2 pending wake-ups"},
		{"on the heap and in the wheel", func(u *unitSnap, i int, _ time.Time) {
			u.WheelEvents = append(u.WheelEvents, u.HeapEvents[i])
		}, "user %d has 2 pending wake-ups"},
		{"at the snapshot time", func(u *unitSnap, i int, now time.Time) {
			u.HeapEvents[i].At = now
		}, "pending wake-up of user %d at"},
		{"before the snapshot time", func(u *unitSnap, i int, now time.Time) {
			u.HeapEvents[i].At = now.Add(-time.Hour)
		}, "pending wake-up of user %d at"},
	} {
		snap := decodeSnap(t, data)
		c.edit(&snap.Units[1], wake, snap.Now)
		want := fmt.Sprintf(c.want, user)
		if _, err := Restore(encodeSnap(t, 2, snap)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Restore of a wake-up %s: err = %v, want one containing %q", c.name, err, want)
		}
	}
}
