// Package errpropagate flags dropped errors on packet-path writes in
// the Shadowsocks data-plane packages. A silently failed Write on a
// relay path turns into a stalled or half-open proxy connection — the
// precise behaviours (RST vs FIN/ACK vs timeout) the GFW fingerprints
// (Figure 10) — so write errors must be handled, propagated, or
// explicitly waived with a justification.
package errpropagate

import (
	"go/ast"
	"go/types"

	"sslab/internal/analysis"
)

// writeMethods are the method names treated as packet-path writes.
var writeMethods = map[string]bool{
	"Write":       true,
	"WriteTo":     true,
	"WriteString": true,
	"WriteMsgUDP": true,
	"SendTo":      true,
}

// Analyzer flags statement-position and blank-assigned write calls
// whose error result is discarded.
var Analyzer = &analysis.Analyzer{
	Name: "errpropagate",
	Doc: "flag dropped errors from Write/WriteTo-style calls on the " +
		"packet path; a failed relay write must be handled or " +
		"explicitly waived",
	Scope:        analysis.WirePackages,
	IncludeTests: false,
	Run:          run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var call *ast.CallExpr
			switch stmt := n.(type) {
			case *ast.ExprStmt:
				call, _ = stmt.X.(*ast.CallExpr)
			case *ast.AssignStmt:
				if len(stmt.Rhs) != 1 || !allBlank(stmt.Lhs) {
					return true
				}
				call, _ = stmt.Rhs[0].(*ast.CallExpr)
			default:
				return true
			}
			if call == nil {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !writeMethods[sel.Sel.Name] {
				return true
			}
			selection, ok := pass.Info.Selections[sel]
			if !ok {
				return true // package-level function, not a method call
			}
			fn, ok := selection.Obj().(*types.Func)
			if !ok || !returnsError(fn) || infallibleWriter(selection.Recv()) {
				return true
			}
			pass.Reportf(sel.Sel.Pos(),
				"error from (%s).%s is dropped on the packet path; handle or propagate it",
				types.TypeString(selection.Recv(), types.RelativeTo(pass.Pkg)), sel.Sel.Name)
			return true
		})
	}
	return nil
}

// allBlank reports whether every expression is the blank identifier.
func allBlank(exprs []ast.Expr) bool {
	for _, e := range exprs {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return true
}

// returnsError reports whether fn's final result is the built-in error
// type.
func returnsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	named, ok := last.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// infallibleWriter exempts receivers whose Write contract cannot fail:
// hash.Hash implementations, bytes.Buffer, and strings.Builder.
func infallibleWriter(recv types.Type) bool {
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() {
	case "hash":
		return true
	case "bytes":
		return obj.Name() == "Buffer"
	case "strings":
		return obj.Name() == "Builder"
	}
	return false
}
