package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestMain lets the test binary act as the benchmark's child process: the
// harness re-executes os.Executable(), which here is the test binary.
func TestMain(m *testing.M) {
	if j := os.Getenv(childEnv); j != "" {
		os.Exit(childMain(j, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// declared is the part of BENCHMARK.json the smoke test checks against.
type declared struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSmoke runs every workload at smoke-test scale, untraced and traced,
// through the same code path as a full run: the run must pass its own
// correctness checks, and print exactly the metric names and units
// BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(d.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d.Workloads[i].Name != w.name || d.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)",
				i, d.Workloads[i].Name, d.Workloads[i].Why, w.name, w.why)
		}
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range d.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range d.PerLayer {
		want[true][m.Name] = m.Unit
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			args := []string{"--workload", w.name, "--seed", "2", "--reps", "1", "--tiny", "--workdir", t.TempDir()}
			if trace {
				args = append(args, "--trace", "1")
			}
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace=%v: exit %d\n%s\n%s", w.name, trace, code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var r result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v", w.name, trace, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, r.Correct, r.Attempted, r.Failed)
			}
			var got []string
			for name, m := range r.Metrics {
				got = append(got, name)
				if !nameRE.MatchString(name) {
					t.Errorf("%s: metric name %q is not made of letters, digits, _ . -", w.name, name)
				}
				if u, ok := want[trace][name]; !ok {
					t.Errorf("%s trace=%v: metric %q is not declared", w.name, trace, name)
				} else if u != m.Unit {
					t.Errorf("%s: metric %q has unit %q, declared %q", w.name, name, m.Unit, u)
				}
			}
			if len(got) != len(want[trace]) {
				sort.Strings(got)
				t.Errorf("%s trace=%v: printed %d metrics, BENCHMARK.json declares %d: %v",
					w.name, trace, len(got), len(want[trace]), got)
			}
		}
	}
}

// TestDeclaredMetricsMatchCode keeps BENCHMARK.json's metric lists, in
// order, equal to the definitions the benchmark reports from.
func TestDeclaredMetricsMatchCode(t *testing.T) {
	d := readDeclared(t)
	check := func(kind string, decl []struct{ Name, Unit, Better string }, defs []metricDef) {
		if len(decl) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the code %d", kind, len(decl), len(defs))
			return
		}
		for i, m := range decl {
			if def := defs[i]; m.Name != def.name || m.Unit != def.unit || m.Better != def.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the code %+v", kind, i, m, def)
			}
		}
	}
	check("end_to_end", d.EndToEnd, endToEndDefs)
	check("per_layer", d.PerLayer, perLayerDefs())
}

// TestQuartilesMatchPython pins the quartile method to Python's
// statistics.quantiles(n=4) default, which spreads are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	s := summarize([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.N != 10 {
		t.Errorf("got %+v, want q1 2.75, median 5.5, q3 8.25", s)
	}
	s = summarize([]float64{3, 1, 2})
	if s.Q1 != 1 || s.Median != 2 || s.Q3 != 3 {
		t.Errorf("got %+v, want q1 1, median 2, q3 3", s)
	}
}

// TestParseTop sums pprof -top rows into package groups and reads a
// filtered view's share.
func TestParseTop(t *testing.T) {
	text := `File: sslab-bench
Type: cpu
Duration: 2.10s, Total samples = 2s (95.24%)
Showing nodes accounting for 2s, 100% of 2s total
      flat  flat%   sum%        cum   cum%
     0.80s 40.00% 40.00%      0.90s 45.00%  sslab/internal/trafficgen.(*Generator).AppendFirstWirePacket
     0.40s 20.00% 60.00%      0.40s 20.00%  runtime.mallocgc
     0.30s 15.00% 75.00%      0.30s 15.00%  sslab/internal/netsim.(*Wheel).advance
     0.20s 10.00% 85.00%      0.20s 10.00%  math/rand.(*rngSource).Int63
     0.20s 10.00% 95.00%      0.20s 10.00%  syscall.Syscall6
     0.05s  2.50% 97.50%      0.05s  2.50%  sslab/internal/core.unknown
     0.03s  1.50% 99.00%      0.03s  1.50%  aeshashbody
     0.02s  1.00%   100%      0.02s  1.00%  time.Time.Sub
`
	got, samples, err := parseTop([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	if samples != 200 {
		t.Errorf("samples = %d, want 200", samples)
	}
	want := map[string]float64{"trafficgen": 0.4, "runtime": 0.215, "netsim": 0.15, "math_rand": 0.1, "syscall_net": 0.1, "other": 0.025, "time": 0.01}
	for k, v := range want {
		if d := got[k] - v; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s: got %v, want %v", k, got[k], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got buckets %v, want %v", got, want)
	}
	share, err := shownShare([]byte("Active filters:\n   focus=x\nShowing nodes accounting for 30ms, 1.70% of 1760ms total\n"))
	if err != nil || share != 0.017 {
		t.Errorf("shownShare = %v, %v; want 0.017", share, err)
	}
}
