// Package optorder enforces the functional-options convention that
// CONTRIBUTING.md specifies in prose. Three rules, all mechanical:
//
//   - A constructor taking ...Option must apply every option before
//     reading the configured state. A read before the apply loop bakes
//     a decision on pre-option defaults, which is exactly the bug class
//     options were adopted to kill (the caller sets WithX and nothing
//     changes).
//
//   - An exported With* helper in a package that declares an Option
//     type must return that Option type (or an alias ending in
//     "Option"), not a bare func literal type — bare funcs do not
//     compose across the facade's re-exports.
//
//   - A New* constructor in an Option-declaring package must not take a
//     positional knob that it zero-defaults (`if p <= 0 { p = ... }`):
//     a defaulted parameter is an option wearing a positional disguise,
//     and every new knob added next to it grows the signature again.
package optorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"sslab/internal/analysis"
)

// Analyzer enforces the constructor-options convention.
var Analyzer = &analysis.Analyzer{
	Name: "optorder",
	Doc: "constructors taking ...Option must apply options before reading " +
		"config; exported With* helpers must return the package Option type; " +
		"constructors must not zero-default positional knobs",
	Scope: analysis.SimPackages,
	Run:   run,
}

func run(pass *analysis.Pass) error {
	hasOptionType := declaresOptionType(pass.Files)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv != nil {
				continue
			}
			checkApplyOrder(pass, fd)
			if hasOptionType {
				checkWithReturn(pass, fd)
				checkZeroDefault(pass, fd)
			}
		}
	}
	return nil
}

// declaresOptionType reports whether any file declares a type whose
// name ends in "Option" (including aliases, as in the root facade).
func declaresOptionType(files []*ast.File) bool {
	for _, f := range files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if ok && strings.HasSuffix(ts.Name.Name, "Option") {
					return true
				}
			}
		}
	}
	return false
}

// checkApplyOrder enforces rule A on constructors with a variadic
// option parameter: no read of the option target before the apply loop.
func checkApplyOrder(pass *analysis.Pass, fd *ast.FuncDecl) {
	optParam := variadicOptionParam(fd)
	if optParam == nil {
		return
	}
	loop, target := findApplyLoop(pass, fd.Body, optParam)
	if loop == nil || target == nil {
		return
	}
	// Writes (assignment LHS) before the loop set defaults that options
	// then override — that is the convention, not a violation. Only
	// reads are flagged.
	writes := map[token.Pos]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			if se, ok := lhs.(*ast.SelectorExpr); ok {
				writes[se.Pos()] = true
			}
		}
		return true
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		se, ok := n.(*ast.SelectorExpr)
		if !ok || se.End() >= loop.Pos() || writes[se.Pos()] {
			return true
		}
		id, ok := se.X.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := pass.Info.Uses[id]; obj != nil && obj == target {
			pass.Reportf(se.Pos(),
				"constructor %s reads %s.%s before applying its options; apply the option loop first so WithX calls are not silently ignored",
				fd.Name.Name, id.Name, se.Sel.Name)
		}
		return true
	})
}

// variadicOptionParam returns the field of fd's final parameter if it
// is variadic with an element type named *Option, else nil.
func variadicOptionParam(fd *ast.FuncDecl) *ast.Field {
	params := fd.Type.Params
	if params == nil || len(params.List) == 0 {
		return nil
	}
	last := params.List[len(params.List)-1]
	ell, ok := last.Type.(*ast.Ellipsis)
	if !ok {
		return nil
	}
	if strings.HasSuffix(terminalTypeName(ell.Elt), "Option") {
		return last
	}
	return nil
}

// findApplyLoop locates `for _, o := range opts { o(&cfg) }` (or
// o.apply(&cfg)) and returns the loop plus the object of the config
// variable the options mutate.
func findApplyLoop(pass *analysis.Pass, body *ast.BlockStmt, optParam *ast.Field) (*ast.RangeStmt, types.Object) {
	if len(optParam.Names) == 0 {
		return nil, nil
	}
	optObj := pass.Info.Defs[optParam.Names[0]]
	var loop *ast.RangeStmt
	var target types.Object
	ast.Inspect(body, func(n ast.Node) bool {
		if loop != nil {
			return false
		}
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if id, ok := rng.X.(*ast.Ident); !ok || pass.Info.Uses[id] != optObj {
			return true
		}
		valueID, _ := rng.Value.(*ast.Ident)
		if valueID == nil {
			return true
		}
		valueObj := pass.Info.Defs[valueID]
		ast.Inspect(rng.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			applied := false
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				applied = pass.Info.Uses[fun] == valueObj
			case *ast.SelectorExpr:
				if x, ok := fun.X.(*ast.Ident); ok {
					applied = pass.Info.Uses[x] == valueObj
				}
			}
			if !applied {
				return true
			}
			arg := call.Args[0]
			if ue, ok := arg.(*ast.UnaryExpr); ok && ue.Op == token.AND {
				arg = ue.X
			}
			if id, ok := arg.(*ast.Ident); ok {
				if obj := pass.Info.Uses[id]; obj != nil {
					loop, target = rng, obj
				}
			}
			return false
		})
		return loop == nil
	})
	return loop, target
}

// checkWithReturn enforces rule B: exported With* helpers return a type
// whose (syntactic) name ends in "Option".
func checkWithReturn(pass *analysis.Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	if !strings.HasPrefix(name, "With") || !ast.IsExported(name) {
		return
	}
	results := fd.Type.Results
	if results == nil || results.NumFields() != 1 {
		pass.Reportf(fd.Name.Pos(),
			"exported option helper %s must return exactly the package's Option type", name)
		return
	}
	ret := results.List[0].Type
	if !strings.HasSuffix(terminalTypeName(ret), "Option") {
		pass.Reportf(fd.Name.Pos(),
			"exported option helper %s must return the package's Option type, not %s; bare func types do not compose across the facade's re-exports",
			name, typeText(ret))
	}
}

// checkZeroDefault enforces rule C: a New* constructor must not take a
// positional parameter that it zero-defaults in its body.
func checkZeroDefault(pass *analysis.Pass, fd *ast.FuncDecl) {
	if !strings.HasPrefix(fd.Name.Name, "New") || fd.Type.Params == nil {
		return
	}
	for _, field := range fd.Type.Params.List {
		for _, pname := range field.Names {
			obj := pass.Info.Defs[pname]
			if obj == nil {
				continue
			}
			if pos, ok := zeroDefaulted(pass, fd.Body, obj); ok {
				pass.Reportf(pos,
					"constructor %s zero-defaults positional parameter %q; a defaulted parameter is an option in disguise — replace it with With%s(...) ...%sOption",
					fd.Name.Name, pname.Name, exportName(pname.Name), optionPrefix(fd.Name.Name))
			}
		}
	}
}

// zeroDefaulted looks for `if p <= 0 { p = ... }` (or == 0, < 1) on the
// parameter object and returns the if statement's position.
func zeroDefaulted(pass *analysis.Pass, body *ast.BlockStmt, param types.Object) (token.Pos, bool) {
	var pos token.Pos
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		cond, ok := ifs.Cond.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch cond.Op {
		case token.LEQ, token.EQL, token.LSS:
		default:
			return true
		}
		id, ok := cond.X.(*ast.Ident)
		if !ok || pass.Info.Uses[id] != param {
			return true
		}
		if lit, ok := cond.Y.(*ast.BasicLit); !ok || (lit.Value != "0" && lit.Value != "1") {
			return true
		}
		// The then-branch must assign the parameter.
		for _, stmt := range ifs.Body.List {
			as, ok := stmt.(*ast.AssignStmt)
			if !ok {
				continue
			}
			for _, lhs := range as.Lhs {
				if lid, ok := lhs.(*ast.Ident); ok && pass.Info.Uses[lid] == param {
					pos, found = ifs.If, true
					return false
				}
			}
		}
		return true
	})
	return pos, found
}

// exportName upper-cases the first byte: tick -> Tick.
func exportName(s string) string {
	if s == "" {
		return s
	}
	return strings.ToUpper(s[:1]) + s[1:]
}

// optionPrefix guesses the option type's prefix from the constructor
// name: NewNetwork -> Network (for the ...NetworkOption hint in
// diagnostics).
func optionPrefix(ctor string) string {
	return strings.TrimPrefix(ctor, "New")
}

// terminalTypeName returns the rightmost identifier of a type
// expression: Option, pkg.Option, []T -> Option, Option, T.
func terminalTypeName(t ast.Expr) string {
	switch t := t.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.SelectorExpr:
		return t.Sel.Name
	case *ast.StarExpr:
		return terminalTypeName(t.X)
	case *ast.ArrayType:
		return terminalTypeName(t.Elt)
	}
	return ""
}

// typeText renders a type expression for diagnostics.
func typeText(t ast.Expr) string {
	switch t := t.(type) {
	case *ast.FuncType:
		return "a bare func type"
	default:
		name := terminalTypeName(t)
		if name == "" {
			return "a non-Option type"
		}
		return name
	}
}
