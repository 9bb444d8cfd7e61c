// Package detrand forbids nondeterministic randomness in the
// simulator- and experiment-side packages. The paper's figures are
// regenerated from discrete-event replays, so every stochastic choice
// must flow from a seeded, injected *rand.Rand: global math/rand
// functions draw from shared process state (order-dependent and, since
// Go 1.20, randomly seeded), and PRNGs seeded from the wall clock make
// two runs with the same configuration diverge.
package detrand

import (
	"go/ast"
	"go/token"

	"sslab/internal/analysis"
)

// Analyzer flags global math/rand usage and wall-clock-seeded PRNG
// construction in deterministic packages.
var Analyzer = &analysis.Analyzer{
	Name: "detrand",
	Doc: "forbid global math/rand functions and wall-clock PRNG seeds in " +
		"simulator/experiment packages; randomness must come from an " +
		"injected, seeded *rand.Rand",
	Scope:        analysis.SimPackages,
	IncludeTests: true,
	Run:          run,
}

// mathRandPaths are the import paths whose package-level functions are
// forbidden.
var mathRandPaths = []string{"math/rand", "math/rand/v2"}

// constructors are the math/rand functions that build a *rand.Rand (or
// Source) and are therefore allowed — provided their seed does not come
// from the wall clock. A function named NewSource in any package
// (seedfork.NewSource) is held to the same seed rule.
var constructors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true}

func run(pass *analysis.Pass) error {
	// reported dedupes the wall-clock diagnostic when time.Now appears
	// inside nested constructor calls (rand.New(rand.NewSource(...))).
	reported := map[token.Pos]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, sel, ok := randCall(pass, call)
			switch {
			case ok && !constructors[name]:
				pass.Reportf(sel.Sel.Pos(),
					"global math/rand.%s draws from shared process state and breaks deterministic replay; use an injected, seeded *rand.Rand", name)
				return true
			case !ok && analysis.FuncName(call) != "NewSource":
				return true
			}
			for _, arg := range call.Args {
				ast.Inspect(arg, func(m ast.Node) bool {
					inner, ok := m.(*ast.CallExpr)
					if !ok {
						return true
					}
					if tname, tsel, ok := pass.PkgFunc(inner, "time"); ok && tname == "Now" && !reported[tsel.Sel.Pos()] {
						reported[tsel.Sel.Pos()] = true
						pass.Reportf(tsel.Sel.Pos(),
							"PRNG seeded from the wall clock makes runs irreproducible; thread a configured seed instead")
					}
					return true
				})
			}
			return true
		})
	}
	return nil
}

// randCall reports whether call invokes a package-level function of
// math/rand (v1 or v2), resolving renamed and shadowed imports.
func randCall(pass *analysis.Pass, call *ast.CallExpr) (string, *ast.SelectorExpr, bool) {
	for _, path := range mathRandPaths {
		if name, sel, ok := pass.PkgFunc(call, path); ok {
			return name, sel, true
		}
	}
	return "", nil, false
}
