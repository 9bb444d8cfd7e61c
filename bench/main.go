// Command bench is the repository benchmark. Four workloads exercise every
// layer of the population-scale censorship simulator and the real
// Shadowsocks stack; a plain run measures them end to end, and a traced run
// breaks each one down per layer into a cost ledger cross-checked against
// a CPU profile.
//
// Run it from the repository root (the script builds the module under
// .bench_build/ and execs it):
//
//	bash bench/run.sh                  # every workload, round-robin, -reps 5
//	bash bench/run.sh -trace           # plus the per-layer ledger and profile
//	bash bench/run.sh --workload fleet-ss --seed 3 --seconds 20 --trace 0
//
// With -workload the last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}},
// holding the end-to-end metrics, or with -trace the per-layer ones.
//
// Every repetition runs in a fresh child process (this binary,
// re-executed), so heap growth, GC pacing and peak RSS never carry over
// from one repetition to the next.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// childEnv carries a child process's job; its presence switches the binary
// into child mode.
const childEnv = "SSLAB_BENCH_CHILD"

// childTimeout bounds one child process, well inside the 180 s a whole
// run may take.
const childTimeout = 150 * time.Second

// minReps is the fewest repetitions a time-bounded run makes.
const minReps = 3

func main() {
	if j := os.Getenv(childEnv); j != "" {
		os.Exit(childMain(j, os.Stdout, os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings.
type config struct {
	workloads []*workload
	seed      int64
	seconds   float64
	reps      int
	trace     bool
	tiny      bool
	workdir   string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload (default: all of them, round-robin)")
	seed := fs.Int64("seed", 1, "seed the workload inputs are generated from")
	seconds := fs.Float64("seconds", 0, "measure each workload for about this long (0: exactly -reps repetitions)")
	reps := fs.Int("reps", 5, "repetitions per workload when -seconds is 0")
	trace := fs.Bool("trace", false, "traced run: per-layer costs, cost ledger and CPU-profile cross-check")
	tiny := fs.Bool("tiny", false, "run every workload at smoke-test scale")
	workdir := fs.String("workdir", ".bench_build", "directory for CPU profiles")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, reps: *reps, trace: *trace, tiny: *tiny, workdir: *workdir}
	if *name == "" {
		cfg.workloads = workloads
	} else {
		w := lookup(*name)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
			return 2
		}
		cfg.workloads = []*workload{w}
	}
	if cfg.reps < 1 {
		fmt.Fprintln(stderr, "bench: -reps must be at least 1")
		return 2
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}

	results, err := measure(cfg, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	ok := true
	for _, r := range results {
		ok = ok && r.Correct
	}
	if len(results) == 1 {
		line, err := json.Marshal(results[0])
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if !ok {
		return 1
	}
	return 0
}

// normalizeArgs joins "-trace 0" / "--trace 1" into the -trace=V form the
// flag package needs for a boolean, so both the bare "-trace" and the
// explicit two-word form work.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			switch args[i+1] {
			case "0", "1", "true", "false":
				out = append(out, a+"="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

// result is what one workload's run reports: the contract's JSON object.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure runs every configured workload — repetitions round-robin, so
// host drift hits each workload alike — and, when tracing, one traced
// repetition, the layer suite and the profile per workload.
func measure(cfg config, stdout, stderr io.Writer) ([]*result, error) {
	budget, count := cfg.seconds, cfg.reps
	if cfg.trace && budget > 0 {
		// The layer suite and the profile take most of a traced run's
		// time; its untraced repetitions only anchor the tracing overhead.
		budget, count = 0, minReps
	}
	cal := newCalibrator(cfg.tiny)
	reps, err := collect(cfg, cal, budget, count, stderr)
	if err != nil {
		return nil, err
	}
	var out []*result
	for _, w := range cfg.workloads {
		r := endToEnd(w, reps[w.name], stdout)
		if cfg.trace {
			r, err = traced(cfg, cal, w, reps[w.name], r, stdout, stderr)
			if err != nil {
				return nil, err
			}
		}
		out = append(out, r)
	}
	return out, nil
}

// collect runs untraced repetitions round-robin over the workloads: with a
// time budget, until each workload has used it (at least minReps each);
// otherwise exactly count each.
func collect(cfg config, cal *calibrator, budget float64, count int, stderr io.Writer) (map[string][]*repResult, error) {
	reps := map[string][]*repResult{}
	spent := map[string]float64{}
	for {
		progressed := false
		for _, w := range cfg.workloads {
			n := len(reps[w.name])
			if budget > 0 {
				if n >= minReps && spent[w.name]*float64(n+1)/float64(n) > budget {
					continue
				}
			} else if n >= count {
				continue
			}
			start := time.Now()
			r, err := spawnRep(cfg, cal, w, "", stderr)
			if err != nil {
				return nil, err
			}
			spent[w.name] += time.Since(start).Seconds()
			reps[w.name] = append(reps[w.name], r)
			progressed = true
		}
		if !progressed {
			return reps, nil
		}
	}
}

// spawnRep runs one repetition of w in a child process, bracketed by host
// speed measurements; profile, when set, is the path prefix for the
// child's CPU profiles.
func spawnRep(cfg config, cal *calibrator, w *workload, profile string, stderr io.Writer) (*repResult, error) {
	var r repResult
	before := cal.last
	err := spawn(job{Mode: "rep", Workload: w.name, Seed: cfg.seed, Tiny: cfg.tiny, Profile: profile}, &r, stderr)
	if err != nil {
		return nil, fmt.Errorf("%s repetition: %w", w.name, err)
	}
	r.Speed = speed(before, cal.measure())
	return &r, nil
}

// job is a child process's assignment, passed through childEnv as JSON.
type job struct {
	Mode     string // "rep" or "layers"
	Workload string
	Seed     int64
	Tiny     bool
	Profile  string `json:",omitempty"`
}

// spawn re-executes this binary with j and decodes the JSON line the
// child prints last into out. The child's standard error passes through.
func spawn(j job, out any, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	spec, err := json.Marshal(j)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(spec))
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("child %s %s: %w", j.Mode, j.Workload, err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), out); err != nil {
		return fmt.Errorf("child %s %s: decoding result: %w", j.Mode, j.Workload, err)
	}
	return nil
}

// childMain runs one job and prints its result as a single JSON line.
func childMain(spec string, stdout, stderr io.Writer) int {
	var j job
	if err := json.Unmarshal([]byte(spec), &j); err != nil {
		fmt.Fprintf(stderr, "bench child: bad job: %v\n", err)
		return 2
	}
	w := lookup(j.Workload)
	if w == nil {
		fmt.Fprintf(stderr, "bench child: unknown workload %q\n", j.Workload)
		return 2
	}
	var out any
	var err error
	switch j.Mode {
	case "rep":
		out, err = w.rep(j)
	case "layers":
		out, err = layerSuite(w, j)
	default:
		err = errors.New("unknown mode " + j.Mode)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench child %s %s: %v\n", j.Mode, j.Workload, err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "bench child: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// profilePrefix is where a traced repetition of w writes its CPU profiles.
func profilePrefix(cfg config, w *workload) string {
	return filepath.Join(cfg.workdir, fmt.Sprintf("%s-%d-%d", w.name, cfg.seed, os.Getpid()))
}
