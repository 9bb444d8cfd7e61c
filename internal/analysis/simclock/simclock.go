// Package simclock forbids wall-clock reads and real-time waits in the
// packages driven by the discrete-event simulator. Virtual time from
// internal/netsim.Sim is what lets four-month probing campaigns replay
// in seconds, bit-for-bit; a single time.Now or time.Sleep smuggled into
// the event loop silently couples results to the host's scheduler.
// Packages that talk to real sockets (the wire stack, probesim) are
// deliberately out of scope — deadlines there are genuine wall-clock
// concerns.
package simclock

import (
	"go/ast"

	"sslab/internal/analysis"
)

// forbidden are the time functions that read the wall clock or block on
// real time. Pure construction and arithmetic (time.Date, time.Duration,
// t.Add, t.Sub) remain legal: simulated timestamps are still time.Time
// values.
var forbidden = map[string]string{
	"Now":       "reads the wall clock",
	"Sleep":     "blocks on real time",
	"After":     "fires on real time",
	"AfterFunc": "fires on real time",
	"Tick":      "fires on real time",
	"NewTimer":  "fires on real time",
	"NewTicker": "fires on real time",
	"Since":     "reads the wall clock",
	"Until":     "reads the wall clock",
}

// Analyzer flags wall-clock time in simulator-driven packages.
var Analyzer = &analysis.Analyzer{
	Name: "simclock",
	Doc: "forbid time.Now/Sleep/After (and friends) in discrete-event " +
		"simulator packages; use the injected netsim.Sim virtual clock " +
		"(sim.Now, sim.After, sim.At)",
	// Code that legitimately reads the wall clock stays out: the root
	// facade's tests and benchmarks drive real sockets and time runs;
	// the commands time themselves (sslab-sweep's progress and ETA,
	// sslab-vet) or set deadlines on live connections (probesim,
	// sslab-client); and probesim's TCPProber sets deadlines on real
	// connections.
	Scope: analysis.Without(analysis.SimPackages,
		"sslab", "sslab/cmd/...", "sslab/internal/probesim"),
	IncludeTests: true,
	Run:          run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, sel, ok := pass.PkgFunc(call, "time")
			if !ok {
				return true
			}
			why, bad := forbidden[name]
			if !bad {
				return true
			}
			pass.Reportf(sel.Sel.Pos(),
				"time.%s %s; simulator packages must use the virtual clock (netsim.Sim.Now/After/At)", name, why)
			return true
		})
	}
	return nil
}
