package sslab_test

import (
	"encoding/json"
	"os"
	"runtime/debug"
	"testing"
)

// raceEnabled reports whether this test binary was built with the race
// detector, read from the binary's embedded build settings. Race
// instrumentation allocates on paths that are allocation-free in
// normal builds, so the alloc-budget tests — whose budgets are
// calibrated for normal builds and enforced by the CI bench-smoke
// step — skip themselves under -race.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// checkAllocBudgets enforces the allocs/op budgets recorded in one
// BENCH_*.json file: every listed sub-benchmark is run and its measured
// allocations compared against the committed budget. Budgets are
// allocation counts, not timings, so the checks are stable across
// hardware; a regression (a new per-op allocation sneaking into a
// steady-state path) fails here and in the CI bench-smoke job.
func checkAllocBudgets(t *testing.T, file string, benches map[string]func(*testing.B)) {
	t.Helper()
	if raceEnabled() {
		t.Skip("race instrumentation inflates allocation counts; budgets are calibrated for normal builds (enforced by the CI bench-smoke step)")
	}
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("reading budgets: %v", err)
	}
	var doc struct {
		AllocBudgets map[string]int64 `json:"alloc_budgets"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("parsing %s: %v", file, err)
	}
	if len(doc.AllocBudgets) == 0 {
		t.Fatalf("%s has no alloc_budgets", file)
	}
	for name, fn := range benches {
		budget, ok := doc.AllocBudgets[name]
		if !ok {
			t.Errorf("%s: no alloc budget in %s", name, file)
			continue
		}
		res := testing.Benchmark(fn)
		if got := res.AllocsPerOp(); got > budget {
			t.Errorf("%s: %d allocs/op exceeds budget %d (%s)", name, got, budget, res.MemString())
		} else {
			t.Logf("%s: %d allocs/op (budget %d)", name, got, budget)
		}
	}
	for name := range doc.AllocBudgets {
		if _, ok := benches[name]; !ok {
			t.Errorf("%s budgets unknown benchmark %q", file, name)
		}
	}
}

// TestHotPathAllocBudgets enforces BENCH_hotpath.json over the
// steady-state per-flow pipeline benchmarks.
func TestHotPathAllocBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full benchmarks; skipped with -short")
	}
	checkAllocBudgets(t, "BENCH_hotpath.json", map[string]func(*testing.B){
		"GFWOnFlow":       benchGFWOnFlow,
		"GFWOnFlow3Stage": benchGFWOnFlow3Stage,
		"GFWFlowBatch":    benchGFWFlowBatch,
		"DetectorChainSS": benchDetectorChainSS,
		"DetectorChain3":  benchDetectorChain3,
		"EventDispatch":   benchEventDispatch,
		"StreamConnWrite": benchStreamConnWrite,
		"AEADConnWrite":   benchAEADConnWrite,
		"AEADSeal":        benchAEADSeal,
		"AEADOpen":        benchAEADOpen,
	})
}

// TestFleetAllocBudgets enforces BENCH_fleet.json over the
// population-scale engine: timers on the event heap stay
// allocation-free in steady state, and a complete fixed-seed fleet run
// stays at its deterministic construction-plus-flows allocation count.
func TestFleetAllocBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full benchmarks; skipped with -short")
	}
	checkAllocBudgets(t, "BENCH_fleet.json", map[string]func(*testing.B){
		"TimerSchedule":       benchTimerSchedule,
		"TimerScheduleSparse": benchTimerScheduleSparse,
		"Run2k":               benchFleetRun2k,
		"Run2kSharded":        benchFleetRun2kSharded,
		"SnapshotSave":        benchSnapshotSave,
		"SnapshotRestore":     benchSnapshotRestore,
	})
}

// TestImpairAllocBudgets enforces BENCH_impair.json: the fault-injecting
// Connect path must stay on the ideal path's allocation profile (no
// per-connection allocation, nothing from the impairment machinery).
func TestImpairAllocBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full benchmarks; skipped with -short")
	}
	checkAllocBudgets(t, "BENCH_impair.json", map[string]func(*testing.B){
		"ImpairedConnect": benchImpairedConnect,
	})
}
