package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// traced runs a workload's traced repetition (CPU-profiled) and the layer
// suite, then reports the per-layer metrics: layer costs, the repetition's
// own counters, the cost ledger, and the profile's per-package shares.
// e2e carries the untraced repetitions' verdict and operation counts.
func traced(cfg config, cal *calibrator, w *workload, untraced []*repResult, e2e *result, out, stderr io.Writer) (*result, error) {
	tr, err := spawnRep(cfg, cal, w, profilePrefix(cfg, w), stderr)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, f := range tr.Profiles {
			os.Remove(f)
		}
	}()
	before := cal.last
	var suite map[string]float64
	if err := spawn(job{Mode: "layers", Workload: w.name, Seed: cfg.seed, Tiny: cfg.tiny}, &suite, stderr); err != nil {
		return nil, err
	}
	// Layer costs are reported in reference-host units, like the
	// end-to-end times, and the ledger compares them with the traced
	// repetition's CPU time in the same units: the suite and the
	// repetition run minutes apart on a host whose speed drifts.
	suiteSpeed := speed(before, cal.measure())
	for _, d := range suiteDefs {
		if d.unit != "B" {
			suite[d.name] *= suiteSpeed
		}
	}
	cpuRefS := tr.CPUS * tr.Speed
	prof, err := readProfile(tr.Profiles)
	if err != nil {
		return nil, err
	}

	r := &result{
		Correct:   e2e.Correct,
		Attempted: e2e.Attempted + tr.Attempted,
		Failed:    e2e.Failed + tr.Failed,
		Metrics:   map[string]metric{},
	}
	for _, e := range tr.Errors {
		r.Correct = false
		fmt.Fprintf(out, "  FAIL %s traced repetition: %s\n", w.name, e)
	}
	if tr.Failed > 0 {
		r.Correct = false
	}
	if w.fleet && len(untraced) > 0 && tr.ReportSHA != untraced[0].ReportSHA {
		r.Correct = false
		fmt.Fprintf(out, "  FAIL %s: the traced repetition's report differs from the untraced ones\n", w.name)
	}

	defs := perLayerDefs()
	set := func(name string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unitOf(defs, name)} }
	for _, d := range suiteDefs {
		set(d.name, suite[d.name])
	}
	c := func(n string) float64 { return float64(tr.Counters[n]) }
	for _, n := range countNames {
		set(n, c(n))
	}
	var rates []float64
	for _, rep := range untraced {
		rates = append(rates, float64(rep.Ops)/rep.RunS/rep.Speed)
	}
	set("fleet.cpu_per_wall", tr.CPUS/tr.WindowS)
	set("trace.ops_per_s_ratio", float64(tr.Ops)/tr.RunS/tr.Speed/medianOf(rates))
	set("wheel.cascaded_per_scheduled", ratio(c("wheel.cascaded"), c("wheel.scheduled")))
	set("gfw.record_frac", ratio(c("gfw.payloads_recorded"), c("gfw.triggers")))
	set("gfw.probes_per_block", c("gfw.probes_sent")/math.Max(1, c("gfw.block_events")))

	rows := ledgerRows(w, cfg, suite, tr)
	fracs := ledgerFracs(rows, cpuRefS)
	for _, l := range ledgerLayers {
		set("ledger."+l+".frac", fracs[l])
	}
	set("ledger.residual_frac", fracs["residual"])
	for _, l := range ledgerLayers {
		set("ledger."+l+".prof_frac", prof.layers[l])
	}
	for _, b := range profBuckets {
		set("prof."+b+".self_frac", prof.packages[b])
	}

	fmt.Fprintf(out, "== %s traced repetition: %.6g ops/s = %.4g × the untraced median (host speed %.4g)\n",
		w.name, float64(tr.Ops)/tr.RunS, r.Metrics["trace.ops_per_s_ratio"].Value, tr.Speed)
	fmt.Fprintf(out, "  layer costs in reference-host units (median of %d rounds each; host speed %.4g):\n", suiteRounds, suiteSpeed)
	for _, d := range suiteDefs {
		fmt.Fprintf(out, "    %-34s %12.6g %s\n", d.name, suite[d.name], d.unit)
	}
	printLedger(out, rows, fracs, prof, cpuRefS)
	var parts []string
	for _, d := range defs[len(suiteDefs):] {
		if d.unit == "count" || d.unit == "ratio" {
			parts = append(parts, fmt.Sprintf("%s %.6g", d.name, r.Metrics[d.name].Value))
		}
	}
	fmt.Fprintln(out, "  counts and ratios:")
	printWrapped(out, parts, 4)
	return r, nil
}

// printWrapped prints parts indented, n to a line.
func printWrapped(out io.Writer, parts []string, n int) {
	for len(parts) > 0 {
		k := min(n, len(parts))
		fmt.Fprintf(out, "    %s\n", strings.Join(parts[:k], "  "))
		parts = parts[k:]
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ledgerRow is one term of the cost ledger: a layer's measured cost per
// operation times the number of those operations the traced repetition
// performed.
type ledgerRow struct {
	layer, what string
	nsPerOp     float64
	count       float64
}

// ledgerRows builds the workload's cost model from the layer suite and the
// traced repetition's counters. Where a count is not counted directly it
// is derived from the report: flows to Shadowsocks (or obfs) servers by
// those servers' user share, and client link creations as an upper bound
// of two per user and server epoch (the links probes create are part of
// gfw.probe_ns).
func ledgerRows(w *workload, cfg config, suite map[string]float64, tr *repResult) []ledgerRow {
	if !w.fleet {
		return []ledgerRow{
			{"sscrypto", "AEAD seal+open per KiB relayed", suite["sscrypto.seal_ns_per_kb"] + suite["sscrypto.open_ns_per_kb"], tr.Info["response_kib"]},
			{"sscrypto", "HKDF subkey + cipher, 4 per connection", suite["sscrypto.subkey_ns"], 4 * tr.Info["conns"]},
		}
	}
	c := func(n string) float64 { return float64(tr.Counters[n]) }
	flows := c("fleet.flows")
	rows := []ledgerRow{{"trafficgen", "AppendProtocolFirstPacket per client flow", suite["trafficgen.append_ns"], flows}}
	if shapeOf(w.name, cfg.seed, cfg.tiny).cfg.Impair != nil {
		links := 2 * (tr.Info["users"] + tr.Info["replacements"]*tr.Info["users_per_srv"])
		rows = append(rows,
			ledgerRow{"netsim_connect", "impaired ConnectBatch per client flow", suite["netsim.connect_impaired_ns"], flows},
			ledgerRow{"netsim_link", "link creation (upper bound)", suite["netsim.new_link_ns"], links})
	} else {
		rows = append(rows, ledgerRow{"netsim_connect", "ConnectBatch per client flow", suite["netsim.connect_batch_ns"], flows})
	}
	return append(rows,
		ledgerRow{"wheel", "wheel + event heap per scheduled wake-up", suite["netsim.wheel_ns_per_timer"], c("wheel.scheduled")},
		ledgerRow{"reaction", "RegisterNonce per flow to a Shadowsocks server", suite["reaction.register_nonce_ns"], flows * tr.Info["ss_user_share"]},
		ledgerRow{"bloom", "FNV + Bloom Add per flow to an SS/obfs server", suite["bloom.add_ns"], flows * tr.Info["seen_user_share"]},
		ledgerRow{"gfw_passive", "OnFlow, probing paused, per non-probe flow", suite["gfw.passive_verdict_ns"], c("gfw.triggers")},
		ledgerRow{"gfw_probe", "recording + probe + reaction per probe sent", suite["gfw.probe_ns"], c("gfw.probes_sent")},
	)
}

// ledgerFracs turns the rows into shares of cpuS, the traced repetition's
// CPU time inside the ledger window (both in reference-host units);
// "residual" is what the rows leave unexplained.
func ledgerFracs(rows []ledgerRow, cpuS float64) map[string]float64 {
	fracs := map[string]float64{}
	sum := 0.0
	for _, row := range rows {
		f := row.nsPerOp * row.count / (cpuS * 1e9)
		fracs[row.layer] += f
		sum += f
	}
	fracs["residual"] = 1 - sum
	return fracs
}

// layerFocus selects each ledger layer's samples in the CPU profile:
// those with a frame matching focus on the stack and none matching ignore
// (pprof's -focus and -ignore). Their share of all samples is the layer's
// measured cost, set beside the ledger's modelled one. Probe-driven work
// is left to gfw_probe, whose microbench includes it.
var layerFocus = []struct{ layer, focus, ignore string }{
	{"trafficgen", `trafficgen\.\(\*Generator\)\.AppendProtocolFirstPacket`, ""},
	{"netsim_connect", `netsim\.\(\*Network\)\.ConnectBatch`, `gfw\.\(\*GFW\)\.OnFlow|serverHost\)\.HandleFlow|netsim\.\(\*Network\)\.linkFor`},
	{"netsim_link", `netsim\.\(\*Network\)\.linkFor`, probeTasks},
	{"wheel", `netsim\.\(\*Wheel\)|netsim\.runWheelAnchor|netsim\.\(\*Sim\)\.(push|pop|siftUp|siftDown)`, ""},
	{"reaction", `reaction\.\(\*Server\)\.RegisterNonce`, ""},
	{"bloom", `serverHost\)\.hashPayload|bloom\.\(\*Filter\)\.Add`, `RegisterNonce|ReactAt|` + probeTasks},
	{"gfw_passive", `gfw\.\(\*GFW\)\.OnFlow`, probeTasks},
	{"gfw_probe", probeTasks, ""},
	{"sscrypto", `sscrypto\.`, ""},
}

// probeTasks matches the censor's scheduled probe work.
const probeTasks = `gfw\.run(Probe|Dup|Retry)Task`

func printLedger(out io.Writer, rows []ledgerRow, fracs map[string]float64, pr *profile, cpuS float64) {
	fmt.Fprintf(out, "  cost ledger: shares of the ledger window's %.4g reference-host CPU seconds; profile = the same\n", cpuS)
	fmt.Fprintf(out, "  repetition's CPU-profile share of samples under the layer's entry points\n")
	fmt.Fprintf(out, "    %-15s %12s %14s %8s %8s  %s\n", "layer", "ns/op", "count", "share", "profile", "what")
	shown := map[string]bool{}
	for _, row := range rows {
		prof := ""
		if !shown[row.layer] {
			prof = fmt.Sprintf("%8.4f", pr.layers[row.layer])
			shown[row.layer] = true
		}
		fmt.Fprintf(out, "    %-15s %12.4g %14.0f %8.4f %8s  %s\n", row.layer, row.nsPerOp, row.count,
			row.nsPerOp*row.count/(cpuS*1e9), prof, row.what)
	}
	fmt.Fprintf(out, "    %-15s %12s %14s %8.4f\n", "residual", "", "", fracs["residual"])
	fmt.Fprintf(out, "  CPU profile (%d samples), flat share by package:\n", pr.samples)
	var parts []string
	for _, b := range profBuckets {
		if pr.packages[b] > 0 {
			parts = append(parts, fmt.Sprintf("%s %.4f", b, pr.packages[b]))
		}
	}
	printWrapped(out, parts, 6)
}

// profile is what the traced repetition's CPU profile says: flat shares by
// package group and per-layer shares (see layerFocus).
type profile struct {
	samples  int
	packages map[string]float64
	layers   map[string]float64
}

// readProfile merges the CPU profiles with the toolchain's own
// `go tool pprof -top`: once whole, summing flat time per profBuckets
// group, and once per ledger layer with that layer's focus.
func readProfile(files []string) (*profile, error) {
	if len(files) == 0 {
		return nil, fmt.Errorf("traced repetition wrote no CPU profile")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		return nil, fmt.Errorf("the go tool is needed for the profile cross-check: %w", err)
	}
	top := func(filters ...string) ([]byte, error) {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		args := []string{"tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-edgefraction=0"}
		args = append(append(args, filters...), files...)
		cmd := exec.CommandContext(ctx, gobin, args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		text, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go tool pprof: %w: %s", err, strings.TrimSpace(stderr.String()))
		}
		return text, nil
	}
	text, err := top()
	if err != nil {
		return nil, err
	}
	pr := &profile{layers: map[string]float64{}}
	if pr.packages, pr.samples, err = parseTop(text); err != nil {
		return nil, err
	}
	for _, lf := range layerFocus {
		filters := []string{"-focus=" + lf.focus}
		if lf.ignore != "" {
			filters = append(filters, "-ignore="+lf.ignore)
		}
		text, err := top(filters...)
		if err != nil {
			return nil, err
		}
		if pr.layers[lf.layer], err = shownShare(text); err != nil {
			return nil, err
		}
	}
	return pr, nil
}

// parseTop reads the rows of an unfiltered `pprof -top` ("flat flat% sum%
// cum cum% name") and returns the flat shares summed per bucket,
// normalized to 1, and the number of rows' worth of 10 ms samples.
func parseTop(text []byte) (map[string]float64, int, error) {
	shares := map[string]float64{}
	total := 0.0
	samples := 0
	inTable := false
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !inTable {
			if len(f) >= 7 && f[0] == "Duration:" {
				// "Duration: 1.91s, Total samples = 1760ms (92.31%)"
				if d, err := time.ParseDuration(f[5]); err == nil {
					samples = int(d / (10 * time.Millisecond))
				}
			}
			inTable = len(f) >= 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			return nil, 0, fmt.Errorf("pprof row %q: %w", sc.Text(), err)
		}
		shares[pkgBucket(strings.Join(f[5:], " "))] += pct
		total += pct
	}
	if total == 0 {
		return nil, 0, fmt.Errorf("the CPU profile holds no samples")
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, samples, nil
}

// shownShare reads the share of all samples a filtered `pprof -top` keeps,
// from its "Showing nodes accounting for 30ms, 1.70% of 1760ms total" line
// (0 when the filter matches nothing).
func shownShare(text []byte) (float64, error) {
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Showing nodes accounting for ") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 6 {
			break
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[5], "%"), 64)
		if err != nil {
			return 0, fmt.Errorf("pprof header %q: %w", line, err)
		}
		return pct / 100, nil
	}
	return 0, nil
}

// pkgBucket maps a profiled function name to its profBuckets group.
func pkgBucket(fn string) string {
	const repo = "sslab/internal/"
	has := func(prefixes ...string) bool {
		for _, p := range prefixes {
			if strings.HasPrefix(fn, p) {
				return true
			}
		}
		return false
	}
	switch {
	case strings.HasPrefix(fn, repo):
		name := fn[len(repo):]
		if i := strings.IndexAny(name, "./"); i >= 0 {
			name = name[:i]
		}
		for _, b := range profBuckets {
			if b == name {
				return b
			}
		}
		return "other"
	case has("main."):
		return "bench"
	case has("syscall.", "internal/runtime/syscall.", "internal/poll.", "net.", "os.", "internal/syscall/"):
		return "syscall_net"
	case has("runtime.", "runtime/", "internal/runtime/") || !strings.Contains(fn, "."):
		// Assembly helpers (aeshashbody, memeqbody, ...) carry no package.
		return "runtime"
	case has("math/rand"):
		return "math_rand"
	case has("math."):
		return "math"
	case has("time."):
		return "time"
	case has("crypto/", "vendor/golang.org/x/crypto/"):
		return "crypto"
	}
	return "other"
}
