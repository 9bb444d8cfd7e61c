// Package seedfork enforces the repository's seed-derivation rule:
// child seeds are derived with seedfork.Fork(parent, label, idx...),
// never with arithmetic on a parent seed. Ad-hoc offsets (cfg.Seed+7,
// seed+int64(i)*77) collide as soon as two call sites pick overlapping
// offsets — a sweep over a seed list and a parameter grid makes such
// collisions inevitable — and a collision silently correlates two
// "independent" random streams, which skews exactly the tail statistics
// the paper's figures report. The rule used to live only in
// CONTRIBUTING.md prose; this analyzer makes it mechanical.
package seedfork

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"sslab/internal/analysis"
)

// Analyzer flags arithmetic on seed-named integers and PRNG seeding
// expressions that mix arithmetic without flowing through seedfork.Fork.
var Analyzer = &analysis.Analyzer{
	Name: "seedfork",
	Doc: "forbid deriving child seeds by arithmetic on a parent seed; " +
		"derive them with seedfork.Fork(parent, label, idx...) so streams " +
		"never collide across components, grid cells and shards",
	Scope: []string{
		// The deterministic packages of the detrand scope, except
		// internal/seedfork itself (the one place allowed to mix seed
		// bits — that is its job). The crypto packages stay out too:
		// their test-vector key/nonce "seeds" are fixtures, not PRNG
		// stream identities.
		"sslab",
		"sslab/cmd/...",
		"sslab/internal/bloom",
		"sslab/internal/campaign",
		"sslab/internal/capture",
		"sslab/internal/defense",
		"sslab/internal/detector",
		"sslab/internal/entropy",
		"sslab/internal/experiment",
		"sslab/internal/fleet",
		"sslab/internal/gfw",
		"sslab/internal/metrics",
		"sslab/internal/netsim",
		"sslab/internal/probe",
		"sslab/internal/probesim",
		"sslab/internal/reaction",
		"sslab/internal/replay",
		"sslab/internal/stats",
		"sslab/internal/trafficgen",
	},
	IncludeTests: true,
	Run:          run,
}

// arithmeticOps are the binary operators that derive a new value from a
// seed. Comparisons are fine (iterating over a seed range is how sweeps
// work); only derivation is the hazard.
var arithmeticOps = map[token.Token]bool{
	token.ADD: true, token.SUB: true, token.MUL: true, token.QUO: true,
	token.REM: true, token.XOR: true, token.AND: true, token.OR: true,
	token.SHL: true, token.SHR: true, token.AND_NOT: true,
}

// seedCtors are the math/rand/v2 constructors whose argument is a
// seed. math/rand's NewSource is recognized by name, with
// seedfork.NewSource (see isSeedCtor).
var seedCtors = map[string]map[string]bool{
	"math/rand/v2": {"NewPCG": true, "NewChaCha8": true},
}

func run(pass *analysis.Pass) error {
	reported := map[token.Pos]bool{}
	report := func(pos token.Pos, format string, args ...any) {
		if !reported[pos] {
			reported[pos] = true
			pass.Reportf(pos, format, args...)
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if !arithmeticOps[n.Op] {
					return true
				}
				for _, side := range [2]ast.Expr{n.X, n.Y} {
					if name, ok := seedishOperand(pass, side); ok {
						report(n.OpPos,
							"arithmetic on seed %q derives a child seed by offset, which collides across call sites; use seedfork.Fork(parent, label, idx...)", name)
						break
					}
				}
			case *ast.CallExpr:
				if !isSeedCtor(pass, n) {
					return true
				}
				for _, arg := range n.Args {
					if flowsFromFork(arg) {
						continue
					}
					op := firstArithmetic(pass, arg)
					if op == nil {
						continue
					}
					// Prefer the seed-name diagnostic when it applies: the
					// BinaryExpr case would report the same position later,
					// but this call is visited first.
					if name, ok := seedishOperand(pass, op.X); ok {
						report(op.OpPos,
							"arithmetic on seed %q derives a child seed by offset, which collides across call sites; use seedfork.Fork(parent, label, idx...)", name)
					} else if name, ok := seedishOperand(pass, op.Y); ok {
						report(op.OpPos,
							"arithmetic on seed %q derives a child seed by offset, which collides across call sites; use seedfork.Fork(parent, label, idx...)", name)
					} else {
						report(op.OpPos,
							"PRNG seeded from an arithmetic expression; derive the seed with seedfork.Fork(parent, label, idx...) instead")
					}
				}
			}
			return true
		})
	}
	return nil
}

// seedishOperand reports whether e is an integer-typed identifier or
// selector whose name looks like a seed ("seed", "Seed", "baseSeed",
// "cfg.Seed", "seedOff"). The integer requirement keeps byte-slice and
// string names like "seedCorpus" out.
func seedishOperand(pass *analysis.Pass, e ast.Expr) (string, bool) {
	var name string
	switch e := e.(type) {
	case *ast.Ident:
		name = e.Name
	case *ast.SelectorExpr:
		name = e.Sel.Name
	default:
		return "", false
	}
	if !strings.Contains(strings.ToLower(name), "seed") {
		return "", false
	}
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Type == nil {
		return "", false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsInteger == 0 {
		return "", false
	}
	return name, true
}

// isSeedCtor reports whether call constructs a PRNG source from a seed
// argument (math/rand/v2 NewPCG/NewChaCha8, or by name any NewSource
// or SplitMix-style helper).
func isSeedCtor(pass *analysis.Pass, call *ast.CallExpr) bool {
	for path, names := range seedCtors {
		if name, _, ok := pass.PkgFunc(call, path); ok && names[name] {
			return true
		}
	}
	// NewSource (math/rand's and seedfork's) and inline SplitMix-style
	// seeding helpers (the fleet engine's per-user PRNG) are recognized
	// by name, wherever they live.
	name := analysis.FuncName(call)
	return name == "NewSource" || strings.Contains(strings.ToLower(name), "splitmix")
}

// flowsFromFork reports whether the expression contains a call to a
// function named Fork — the laundering point that makes any downstream
// arithmetic (a conversion, a cast) acceptable.
func flowsFromFork(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && analysis.FuncName(call) == "Fork" {
			found = true
		}
		return !found
	})
	return found
}

// firstArithmetic returns the first integer arithmetic BinaryExpr inside
// e, or nil.
func firstArithmetic(pass *analysis.Pass, e ast.Expr) *ast.BinaryExpr {
	var found *ast.BinaryExpr
	ast.Inspect(e, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		b, ok := n.(*ast.BinaryExpr)
		if !ok || !arithmeticOps[b.Op] {
			return true
		}
		tv, ok := pass.Info.Types[b.X]
		if ok && tv.Type != nil {
			if basic, ok := tv.Type.Underlying().(*types.Basic); ok && basic.Info()&types.IsInteger != 0 {
				found = b
				return false
			}
		}
		return true
	})
	return found
}
