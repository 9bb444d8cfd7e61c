package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"sslab/internal/experiment"
)

// fakeRunShard builds a deterministic synthetic report from the
// shard's identity alone, with all three mergeable leaf kinds: a
// numeric scalar, a histogram-shaped subtree and a CDF-shaped one.
func fakeRunShard(s Shard) (json.RawMessage, error) {
	counts := map[string]int{}
	for i := 0; i < 5; i++ {
		counts[fmt.Sprint((int(s.Seed)+i)%3)]++
	}
	samples := make([]float64, 40)
	for i := range samples {
		samples[i] = float64(s.Seed)*100 + float64(i)
	}
	return json.Marshal(map[string]any{
		"Rate":  float64(s.Seed) * 0.25,
		"Hist":  map[string]any{"Counts": counts, "Total": 5},
		"Delay": map[string]any{"Samples": samples},
	})
}

func testSpec() Spec {
	return Spec{
		Experiment: "fake",
		Seeds:      []int64{1, 2, 3, 4, 5, 6},
		Grid:       []Axis{{Key: "Knob", Values: []string{"10", "20"}}},
	}
}

func mergedBytes(t *testing.T, spec Spec, opt Options) []byte {
	t.Helper()
	rep, err := Run(spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rep.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRunDeterministicAcrossWorkerCounts is the core contract: the
// merged report's bytes do not depend on the worker pool size.
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	spec := testSpec()
	base := mergedBytes(t, spec, Options{Workers: 1, RunShard: fakeRunShard})
	for _, w := range []int{2, 3, 8, 16} {
		got := mergedBytes(t, spec, Options{Workers: w, RunShard: fakeRunShard})
		if !bytes.Equal(base, got) {
			t.Fatalf("merged report differs between -workers 1 and -workers %d:\n%s\nvs\n%s", w, base, got)
		}
	}
}

func TestMergeGroupsAndMetrics(t *testing.T) {
	spec := testSpec()
	rep, err := Run(spec, Options{Workers: 4, RunShard: fakeRunShard})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != Schema {
		t.Errorf("schema = %q", rep.Schema)
	}
	if rep.Shards != 12 || rep.Failed != 0 || len(rep.Groups) != 2 {
		t.Fatalf("shards=%d failed=%d groups=%d, want 12/0/2", rep.Shards, rep.Failed, len(rep.Groups))
	}
	g := rep.Groups[0]
	if len(g.GridPoint) != 1 || g.GridPoint[0] != (Param{Key: "Knob", Value: "10"}) {
		t.Errorf("group 0 grid point = %+v", g.GridPoint)
	}
	if len(g.Metrics) != 1 || g.Metrics[0].Name != "Rate" {
		t.Fatalf("metrics = %+v", g.Metrics)
	}
	m := g.Metrics[0]
	// Seeds 1..6, Rate = seed/4 → mean 0.875, min 0.25, max 1.5.
	if m.N != 6 || m.Mean != 0.875 || m.Min != 0.25 || m.Max != 1.5 {
		t.Errorf("Rate = %+v", m)
	}
	if !(m.CILo <= m.Mean && m.Mean <= m.CIHi) {
		t.Errorf("CI [%v,%v] does not bracket mean %v", m.CILo, m.CIHi, m.Mean)
	}
	if len(g.Histograms) != 1 || g.Histograms[0].Total != 30 {
		t.Errorf("histograms = %+v", g.Histograms)
	}
	if len(g.CDFs) != 1 || g.CDFs[0].N != 240 {
		t.Errorf("cdfs = %+v", g.CDFs)
	}
}

// TestPanicIsolation: a panicking shard becomes an error row; the rest
// of the sweep completes and merges.
func TestPanicIsolation(t *testing.T) {
	run := func(s Shard) (json.RawMessage, error) {
		if s.Seed == 3 {
			panic("synthetic shard crash")
		}
		return fakeRunShard(s)
	}
	spec := testSpec()
	rep, err := Run(spec, Options{Workers: 4, RunShard: run})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 2 { // seed 3 fails in both grid cells
		t.Fatalf("failed = %d, want 2", rep.Failed)
	}
	for _, g := range rep.Groups {
		if len(g.Errors) != 1 || g.Errors[0].Seed != 3 || !strings.Contains(g.Errors[0].Err, "synthetic shard crash") {
			t.Errorf("errors = %+v", g.Errors)
		}
		if len(g.Seeds) != 5 || g.Metrics[0].N != 5 {
			t.Errorf("surviving seeds = %v, metric N = %d", g.Seeds, g.Metrics[0].N)
		}
	}
}

// TestCheckpointResume kills the sweep after a partial checkpoint
// (simulated by truncating shards.jsonl mid-line) and verifies resume
// reproduces the exact bytes of an uninterrupted run.
func TestCheckpointResume(t *testing.T) {
	spec := testSpec()
	want := mergedBytes(t, spec, Options{Workers: 2, RunShard: fakeRunShard})

	dir := t.TempDir()
	var ran atomic.Int64 // RunShard runs on concurrent workers
	count := func(s Shard) (json.RawMessage, error) { ran.Add(1); return fakeRunShard(s) }
	_ = mergedBytes(t, spec, Options{Workers: 1, Dir: dir, RunShard: count})
	if ran.Load() != 12 {
		t.Fatalf("first run executed %d shards, want 12", ran.Load())
	}

	// Chop the JSONL to 4 complete lines plus a truncated fifth, as if
	// the process died mid-write.
	path := filepath.Join(dir, shardsFile)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(b, []byte("\n"))
	if len(lines) < 6 {
		t.Fatalf("only %d checkpoint lines", len(lines))
	}
	chopped := append(bytes.Join(lines[:4], nil), lines[4][:len(lines[4])/2]...)
	if err := os.WriteFile(path, chopped, 0o644); err != nil {
		t.Fatal(err)
	}

	ran.Store(0)
	got := mergedBytes(t, spec, Options{Workers: 3, Dir: dir, Resume: true, RunShard: count})
	if ran.Load() != 8 { // 12 shards - 4 intact checkpoint lines
		t.Errorf("resume executed %d shards, want 8", ran.Load())
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("resumed merged report differs from clean run:\n%s\nvs\n%s", want, got)
	}

	// merged.json on disk matches too.
	disk, err := os.ReadFile(filepath.Join(dir, mergedFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, disk) {
		t.Error("merged.json differs from returned report")
	}
}

func TestCheckpointRefusesReuseWithoutResume(t *testing.T) {
	spec := testSpec()
	dir := t.TempDir()
	_ = mergedBytes(t, spec, Options{Workers: 1, Dir: dir, RunShard: fakeRunShard})
	if _, err := Run(spec, Options{Dir: dir, RunShard: fakeRunShard}); err == nil {
		t.Fatal("second run over an existing sweep dir succeeded without -resume")
	}
}

func TestCheckpointRefusesMismatchedSpec(t *testing.T) {
	spec := testSpec()
	dir := t.TempDir()
	_ = mergedBytes(t, spec, Options{Workers: 1, Dir: dir, RunShard: fakeRunShard})
	other := spec
	other.Seeds = []int64{9, 10}
	if _, err := Run(other, Options{Dir: dir, Resume: true, RunShard: fakeRunShard}); err == nil {
		t.Fatal("resume accepted a different spec")
	}
}

func TestRunValidates(t *testing.T) {
	if _, err := Run(Spec{Experiment: "fake"}, Options{RunShard: fakeRunShard}); err == nil {
		t.Error("no-seed spec accepted")
	}
	if _, err := Run(Spec{Seeds: []int64{1}}, Options{RunShard: fakeRunShard}); err == nil {
		t.Error("no-experiment spec accepted")
	}
	if _, err := Run(Spec{Experiment: "fake", Seeds: []int64{1, 1}}, Options{RunShard: fakeRunShard}); err == nil {
		t.Error("duplicate seeds accepted")
	}
	if _, err := Run(Spec{Experiment: "no-such-experiment", Seeds: []int64{1}}, Options{}); err == nil ||
		!strings.Contains(err.Error(), "valid:") {
		t.Error("unknown experiment should list valid names")
	}
}

// TestImpairedSweepWorkerIndependence is the impairment determinism
// contract end-to-end: a sweep whose grid cells inject loss and jitter
// merges to the same bytes under -workers 1 and -workers 4. Per-link
// impairment PRNGs are forked from (sim seed, endpoint IPs), never from
// scheduling, so shard results cannot depend on which worker ran them.
func TestImpairedSweepWorkerIndependence(t *testing.T) {
	spec := Spec{
		Experiment: "banstudy",
		Seeds:      []int64{1, 2},
		Base:       []Param{{Key: "Triggers", Value: "400"}, {Key: "GFW.PoolSize", Value: "64"}},
		Grid: []Axis{
			{Key: "Impair.Loss", Values: []string{"0", "0.02"}},
			{Key: "Impair.Jitter", Values: []string{"0", "50000000"}},
		},
	}
	base := mergedBytes(t, spec, Options{Workers: 1})
	got := mergedBytes(t, spec, Options{Workers: 4})
	if !bytes.Equal(base, got) {
		t.Fatalf("impaired sweep differs between -workers 1 and -workers 4:\n%s\nvs\n%s", base, got)
	}
}

// TestRegistryShard runs one real (tiny) registry experiment through
// the engine, grid overrides included.
func TestRegistryShard(t *testing.T) {
	spec := Spec{
		Experiment: "probecost",
		Seeds:      []int64{1, 2},
		Grid:       []Axis{{Key: "Trials", Values: []string{"4", "6"}}},
	}
	rep, err := Run(spec, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 || len(rep.Groups) != 2 {
		t.Fatalf("failed=%d groups=%d: %+v", rep.Failed, len(rep.Groups), rep)
	}
	for _, g := range rep.Groups {
		if len(g.Metrics) == 0 {
			t.Errorf("group %+v has no metrics", g.GridPoint)
		}
	}
}

func TestApplyParams(t *testing.T) {
	r, _ := experiment.Lookup("blocking")
	cfg := r.Config(1, false).(*experiment.BlockingConfig)
	if err := ApplyParams(cfg, []Param{{Key: "GFW.Sensitivity", Value: "0.9"}, {Key: "GFW.PoolSize", Value: "4000"}}); err != nil {
		t.Fatal(err)
	}
	if cfg.GFW.Sensitivity != 0.9 || cfg.GFW.PoolSize != 4000 {
		t.Errorf("overrides not applied: Sensitivity=%v PoolSize=%d", cfg.GFW.Sensitivity, cfg.GFW.PoolSize)
	}

	err := ApplyParams(cfg, []Param{{Key: "NoSuchField", Value: "1"}})
	if err == nil || !strings.Contains(err.Error(), "unknown field") {
		t.Errorf("typo should fail the strict decode, got %v", err)
	}
	if err := ApplyParams(cfg, []Param{{Key: "Days.Nested", Value: "1"}}); err == nil {
		t.Error("path through a scalar accepted")
	}
	if err := ApplyParams(cfg, []Param{{Key: "Days", Value: "not-a-number"}}); err == nil {
		t.Error("type-mismatched override accepted")
	}

	// Paths through omitted optional fields create the intermediates:
	// the zero config has no Impair key, yet the grid can sweep it.
	if err := ApplyParams(cfg, []Param{{Key: "Impair.Loss", Value: "0.02"}}); err != nil {
		t.Fatalf("override through omitted Impair pointer: %v", err)
	}
	if cfg.Impair == nil || cfg.Impair.Loss != 0.02 {
		t.Errorf("Impair.Loss override not applied: %+v", cfg.Impair)
	}
	err = ApplyParams(cfg, []Param{{Key: "Impair.NoSuchKnob", Value: "1"}})
	if err == nil || !strings.Contains(err.Error(), "unknown field") {
		t.Errorf("typo below a created intermediate should fail, got %v", err)
	}
	// The error must carry the full dotted path and value, not just the
	// leaf field the decoder rejects — a sweep with -grid axes on three
	// nested structs is undebuggable from `unknown field "NoSuchKnob"`.
	if err != nil && !strings.Contains(err.Error(), "Impair.NoSuchKnob=1") {
		t.Errorf("error does not name the offending parameter path: %v", err)
	}

	// With several overrides, the error names the one that failed.
	cfg2 := r.Config(1, false).(*experiment.BlockingConfig)
	err = ApplyParams(cfg2, []Param{
		{Key: "GFW.Sensitivity", Value: "0.5"},
		{Key: "GFW.NoSuchKnob", Value: "7"},
		{Key: "Days", Value: "3"},
	})
	if err == nil || !strings.Contains(err.Error(), "GFW.NoSuchKnob=7") {
		t.Errorf("error does not single out the failing override: %v", err)
	}
}

// TestApplyParamsErrorNamesExperiment pins the shard-level wrapping: a
// bad override surfaced through the engine names the experiment too.
func TestApplyParamsErrorNamesExperiment(t *testing.T) {
	spec := Spec{
		Experiment: "blocking",
		Seeds:      []int64{1},
		Base:       []Param{{Key: "GFW.NoSuchKnob", Value: "7"}},
	}
	_, err := runRegistered(spec, Shard{Experiment: "blocking", Seed: 1}, 0)
	if err == nil {
		t.Fatal("bad base override accepted")
	}
	for _, want := range []string{"experiment blocking", "GFW.NoSuchKnob=7", "unknown field"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

func TestParseSeeds(t *testing.T) {
	got, err := ParseSeeds("1..4,9, 12..12")
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{1, 2, 3, 4, 9, 12}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
	for _, bad := range []string{"", "a", "4..1", "1..9999999", "1,,2"} {
		if _, err := ParseSeeds(bad); err == nil {
			t.Errorf("ParseSeeds(%q) accepted", bad)
		}
	}
}

func TestParseAxisAndParam(t *testing.T) {
	a, err := ParseAxis("GFW.PoolSize=4000, 8000")
	if err != nil {
		t.Fatal(err)
	}
	if a.Key != "GFW.PoolSize" || len(a.Values) != 2 || a.Values[1] != "8000" {
		t.Errorf("axis = %+v", a)
	}
	for _, bad := range []string{"", "key", "=v", "key=", "key=,"} {
		if _, err := ParseAxis(bad); err == nil {
			t.Errorf("ParseAxis(%q) accepted", bad)
		}
	}
	p, err := ParseParam("Full=true")
	if err != nil || p.Key != "Full" || p.Value != "true" {
		t.Errorf("param = %+v, %v", p, err)
	}
	if _, err := ParseParam("novalue"); err == nil {
		t.Error("ParseParam without = accepted")
	}
}

func TestShardEnumeration(t *testing.T) {
	spec := testSpec()
	shards := spec.Shards()
	if len(shards) != 12 {
		t.Fatalf("%d shards, want 12", len(shards))
	}
	for i, s := range shards {
		if s.Index != i {
			t.Errorf("shard %d has index %d", i, s.Index)
		}
	}
	// Grid-major, seed-minor: first 6 shards are Knob=10 over all seeds.
	if shards[0].GridPoint[0].Value != "10" || shards[5].GridPoint[0].Value != "10" ||
		shards[6].GridPoint[0].Value != "20" {
		t.Errorf("enumeration order wrong: %+v", shards)
	}
	if shards[0].Seed != 1 || shards[6].Seed != 1 {
		t.Errorf("seed-minor order wrong")
	}
}
