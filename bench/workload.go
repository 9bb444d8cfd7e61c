package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workload is one set of inputs the benchmark runs. rep executes one
// repetition inside a child process.
type workload struct {
	name  string
	why   string
	fleet bool
	rep   func(j job) (*repResult, error)
}

// workloads are the benchmark's workloads, in the order they run. Each
// why is the one-line rationale BENCHMARK.json records.
var workloads = []*workload{
	{
		name:  "fleet-ss",
		why:   "SS-only censor on ideal links: the batched wake path (trafficgen, wheel, ConnectBatch, server host) does the work",
		fleet: true,
		rep:   runFleetRep,
	},
	{
		name:  "fleet-armsrace-lossy",
		why:   "3-stage chain, multi-protocol mix, lossy links: prober, impaired Connect and per-link state work, the batched path does not",
		fleet: true,
		rep:   runFleetRep,
	},
	{
		name:  "fleet-regional-ckpt",
		why:   "4 regions x 2 shards with a crackdown schedule, checkpointed 5 times: region/schedule plumbing, report merge, snapshot encode/decode",
		fleet: true,
		rep:   runFleetRep,
	},
	{
		name: "serve-loopback",
		why:  "real ssserver/ssclient on 127.0.0.1: per-connection cost and per-byte AEAD; nothing of the simulator runs here",
		rep:  runServeRep,
	},
}

func lookup(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// repResult is one repetition's measurements, reported by the child.
type repResult struct {
	// SetupS holds one sample per set-up round.
	SetupS []float64
	// RunS is the wall time of the throughput phase (RunTo, or the short
	// fetch phase) and Ops the operations it completed.
	RunS float64
	Ops  int64
	// WallS is the wall time of the whole job after set-up.
	WallS float64
	// CPUS is the process CPU time spent in the ledger window, whose wall
	// time is WindowS (RunTo for the fleet, both fetch phases for serve).
	CPUS    float64
	WindowS float64

	Attempted int64
	Failed    int64
	PeakRSSMB float64
	// ReportSHA is the SHA-256 of the fleet Report's JSON (fleet only).
	ReportSHA string `json:",omitempty"`
	// Counters are the run's own metrics registry, summed over segments.
	Counters map[string]int64
	// Info holds workload-specific observations for the printed report
	// and the ledger.
	Info     map[string]float64
	Profiles []string `json:",omitempty"`
	Errors   []string `json:",omitempty"`
	// Speed is the host's speed relative to the reference host while the
	// repetition ran (measured by the parent; see calibrator).
	Speed float64 `json:"-"`
}

func (r *repResult) errorf(format string, args ...any) {
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// cpuTime is the process's user+system CPU time so far, in seconds.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's peak resident set (VmHWM), in MB; where
// /proc is unavailable it falls back to the Go runtime's mapped memory.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		sc := bufio.NewScanner(bytes.NewReader(data))
		for sc.Scan() {
			if f := strings.Fields(sc.Text()); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / 1e6
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }

// profiler writes one CPU profile per measured segment when prefix is set
// (go tool pprof merges them); with an empty prefix it does nothing.
type profiler struct {
	prefix string
	files  []string
	f      *os.File
}

func (p *profiler) start() error {
	if p.prefix == "" {
		return nil
	}
	name := fmt.Sprintf("%s.%d.pprof", p.prefix, len(p.files))
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	p.f = f
	p.files = append(p.files, name)
	return nil
}

func (p *profiler) stop() error {
	if p.f == nil {
		return nil
	}
	pprof.StopCPUProfile()
	err := p.f.Close()
	p.f = nil
	return err
}
