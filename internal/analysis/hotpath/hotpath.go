// Package hotpath enforces the allocation discipline on functions
// annotated `//sslab:hotpath`. The per-flow and per-event paths (gfw
// OnFlow, the event heap, the fleet wake-up, the cipher framing)
// are benchmarked with hard allocs/op budgets; a stray closure, fmt
// call, interface boxing or growing append silently reintroduces
// per-event garbage that the budgets then catch only after the fact,
// far from the offending line. This analyzer moves the check to the
// line itself.
//
// Inside an annotated function the analyzer flags:
//
//   - function literals (each capture allocates; use the pointer-arg
//     trampoline idiom: AtCall/AfterCall with a freelisted arg struct)
//   - calls into fmt (formatting allocates)
//   - ranging over a map (slow and nondeterministic)
//   - append to a target that is not a scratch buffer (terminal name
//     matching scratch/slab/buf/pool/free, or assigned from one, e.g.
//     out := c.wBuf[:0])
//   - passing a non-pointer concrete value into an interface-typed
//     parameter (boxing allocates; pointers fit the interface word)
package hotpath

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"sslab/internal/analysis"
)

// Analyzer enforces alloc-free discipline in //sslab:hotpath functions.
var Analyzer = &analysis.Analyzer{
	Name: "hotpath",
	Doc: "forbid closures, fmt calls, map iteration, non-scratch appends " +
		"and interface boxing inside functions annotated //sslab:hotpath; " +
		"these paths carry hard allocs/op budgets",
	Scope: []string{
		"sslab",
		"sslab/internal/bloom",
		"sslab/internal/capture",
		"sslab/internal/defense",
		"sslab/internal/detector",
		"sslab/internal/entropy",
		"sslab/internal/fleet",
		"sslab/internal/gfw",
		"sslab/internal/metrics",
		"sslab/internal/netsim",
		"sslab/internal/probesim",
		"sslab/internal/seedfork",
		"sslab/internal/sscrypto",
		"sslab/internal/ssproto",
		"sslab/internal/stats",
		"sslab/internal/trafficgen",
	},
	Run: run,
}

// directive marks a function as budgeted.
const directive = "//sslab:hotpath"

// scratchRe matches names that identify preallocated reusable storage.
var scratchRe = regexp.MustCompile(`(?i)(scratch|slab|buf|pool|free)`)

func run(pass *analysis.Pass) error {
	reported := map[token.Pos]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHot(fd) {
				continue
			}
			checkHot(pass, fd, reported)
		}
	}
	return nil
}

// isHot reports whether the function's doc comment carries the
// //sslab:hotpath directive.
func isHot(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == directive || strings.HasPrefix(c.Text, directive+" ") {
			return true
		}
	}
	return false
}

func checkHot(pass *analysis.Pass, fd *ast.FuncDecl, reported map[token.Pos]bool) {
	report := func(pos token.Pos, format string, args ...any) {
		if !reported[pos] {
			reported[pos] = true
			pass.Reportf(pos, format, args...)
		}
	}
	name := fd.Name.Name
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			report(n.Pos(),
				"closure in hot path %s allocates per call; use a pointer-arg trampoline (AtCall/AfterCall with a freelisted arg struct)", name)
			// Do not descend: everything inside the closure already runs
			// behind the allocation being flagged.
			return false
		case *ast.RangeStmt:
			if tv, ok := pass.Info.Types[n.X]; ok && tv.Type != nil {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					report(n.For,
						"map iteration in hot path %s is slow and order-randomized; index a slice or precomputed table instead", name)
				}
			}
		case *ast.CallExpr:
			if fname, sel, ok := pass.PkgFunc(n, "fmt"); ok {
				report(sel.Sel.Pos(),
					"fmt.%s in hot path %s allocates for formatting; precompute the string or record raw fields", fname, name)
				return true
			}
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "append" && len(n.Args) > 0 {
				if obj := pass.Info.Uses[id]; obj != nil {
					if _, isBuiltin := obj.(*types.Builtin); isBuiltin {
						target := n.Args[0]
						if !isScratch(pass, fd.Body, target) {
							report(n.Pos(),
								"append to %s in hot path %s may grow and allocate; append into a preallocated scratch buffer", exprString(pass, target), name)
						}
						return true
					}
				}
			}
			checkBoxing(pass, n, name, report)
		}
		return true
	})
}

// checkBoxing flags non-pointer concrete arguments passed into
// interface-typed parameters: the conversion boxes the value on the
// heap. Pointers (and pointer-shaped kinds: chan, map, func) fit the
// interface data word and do not allocate.
func checkBoxing(pass *analysis.Pass, call *ast.CallExpr, fname string, report func(token.Pos, string, ...any)) {
	tv, ok := pass.Info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		if call.Ellipsis.IsValid() && i == len(call.Args)-1 {
			continue // f(xs...): the slice itself is passed, nothing boxes
		}
		var pt types.Type
		switch {
		case i < params.Len()-1 || (i < params.Len() && !sig.Variadic()):
			pt = params.At(i).Type()
		case sig.Variadic() && params.Len() > 0:
			last := params.At(params.Len() - 1).Type()
			if sl, ok := last.(*types.Slice); ok {
				pt = sl.Elem()
			}
		}
		if pt == nil {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at, ok := pass.Info.Types[arg]
		if !ok || at.Type == nil || at.IsNil() {
			continue
		}
		if at.Value != nil {
			continue // constants box via static data, not a heap allocation
		}
		if boxes(at.Type) {
			report(arg.Pos(),
				"passing %s by value into an interface parameter in hot path %s boxes on the heap; pass a pointer", exprString(pass, arg), fname)
		}
	}
}

// boxes reports whether storing a value of type t in an interface
// allocates: true for concrete non-pointer-shaped types, false for
// pointers, chans, maps, funcs, unsafe pointers and interfaces.
func boxes(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature,
		*types.Interface:
		return false
	case *types.Basic:
		b := t.Underlying().(*types.Basic)
		return b.Kind() != types.UnsafePointer && b.Kind() != types.UntypedNil
	}
	return true
}

// isScratch reports whether the append target is preallocated reusable
// storage: its terminal name matches scratchRe, or it was assigned in
// this function from an expression mentioning such a name (the
// out := c.wBuf[:0] idiom).
func isScratch(pass *analysis.Pass, body *ast.BlockStmt, target ast.Expr) bool {
	if scratchRe.MatchString(terminalName(target)) {
		return true
	}
	want := exprString(pass, target)
	derived := false
	ast.Inspect(body, func(n ast.Node) bool {
		if derived {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			if exprString(pass, lhs) != want || i >= len(as.Rhs) {
				continue
			}
			if scratchRe.MatchString(exprString(pass, as.Rhs[i])) {
				derived = true
				return false
			}
		}
		return true
	})
	return derived
}

// terminalName returns the rightmost identifier of an lvalue chain:
// x, s.wBuf, w.slots[i] -> x, wBuf, slots.
func terminalName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.IndexExpr:
		return terminalName(e.X)
	case *ast.SliceExpr:
		return terminalName(e.X)
	}
	return ""
}

// exprString renders an expression for identity comparison and
// diagnostics.
func exprString(pass *analysis.Pass, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, pass.Fset, e); err != nil {
		return ""
	}
	return buf.String()
}
