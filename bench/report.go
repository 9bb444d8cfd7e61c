package main

import (
	"fmt"
	"io"
	"sort"
)

// endToEnd reduces a workload's untraced repetitions to its end-to-end
// metrics (medians over repetitions; set-up over every set-up round, times
// scaled to the reference host's speed), prints them with quartiles and
// sample counts, and checks that the repetitions agree: no failed
// operation, no violated identity, and one report hash for every
// repetition of a fleet workload.
func endToEnd(w *workload, reps []*repResult, out io.Writer) *result {
	r := &result{Correct: true, Metrics: map[string]metric{}}
	samples := map[string][]float64{}
	sha := ""
	var speeds []float64
	for i, rep := range reps {
		samples["setup_s"] = append(samples["setup_s"], rep.SetupS...)
		samples["ops_per_s"] = append(samples["ops_per_s"], float64(rep.Ops)/rep.RunS)
		samples["wall_s"] = append(samples["wall_s"], rep.WallS)
		samples["peak_rss_mb"] = append(samples["peak_rss_mb"], rep.PeakRSSMB)
		speeds = append(speeds, rep.Speed)
		r.Attempted += rep.Attempted
		r.Failed += rep.Failed
		for _, e := range rep.Errors {
			r.Correct = false
			fmt.Fprintf(out, "  FAIL %s repetition %d: %s\n", w.name, i, e)
		}
		if w.fleet {
			if i == 0 {
				sha = rep.ReportSHA
			} else if rep.ReportSHA != sha {
				r.Correct = false
				fmt.Fprintf(out, "  FAIL %s repetition %d: report SHA-256 %s differs from repetition 0's %s\n",
					w.name, i, rep.ReportSHA, sha)
			}
		}
	}
	if r.Failed > 0 {
		r.Correct = false
	}

	// One host-speed factor per run: the median of the calibrations taken
	// between its repetitions. It removes the host's drift between runs;
	// per-repetition factors would add the calibration's own noise.
	speed := medianOf(speeds)
	scale := map[string]float64{"setup_s": speed, "ops_per_s": 1 / speed, "wall_s": speed, "peak_rss_mb": 1}
	fmt.Fprintf(out, "== %s: %d repetition(s), each in a fresh process; host speed %.4g of the reference\n",
		w.name, len(reps), speed)
	fmt.Fprintf(out, "  %-14s %14s %14s %14s %6s  %-5s %s\n", "metric", "median", "q1", "q3", "n", "unit", "unscaled median")
	for _, d := range endToEndDefs {
		s := summarize(samples[d.name])
		k := scale[d.name]
		r.Metrics[d.name] = metric{Value: s.Median * k, Unit: d.unit}
		fmt.Fprintf(out, "  %-14s %14.6g %14.6g %14.6g %6d  %-5s %.6g\n", d.name, s.Median*k, s.Q1*k, s.Q3*k, s.N, d.unit, s.Median)
	}
	printInfo(out, reps)
	verdict := "ok"
	if !r.Correct {
		verdict = "FAILED"
	}
	fmt.Fprintf(out, "  checks: %s — %d operations attempted, %d failed", verdict, r.Attempted, r.Failed)
	if w.fleet && sha != "" {
		fmt.Fprintf(out, "; report SHA-256 %.16s… on every repetition", sha)
	}
	fmt.Fprintln(out)
	return r
}

// printInfo prints the medians of the workload-specific observations.
func printInfo(out io.Writer, reps []*repResult) {
	vals := map[string][]float64{}
	for _, rep := range reps {
		for k, v := range rep.Info {
			vals[k] = append(vals[k], v)
		}
	}
	var keys []string
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s %.6g", k, medianOf(vals[k])))
	}
	fmt.Fprintln(out, "  detail (medians):")
	printWrapped(out, parts, 4)
}
