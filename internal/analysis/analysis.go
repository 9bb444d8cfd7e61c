// Package analysis is a self-contained static-analysis framework in the
// spirit of golang.org/x/tools/go/analysis, built only on the standard
// library (the module has zero external dependencies by design). It
// exists to machine-check the invariants the paper reproduction rests
// on: the simulator must stay deterministic (seeded PRNGs, virtual
// clock), the Shadowsocks implementations must draw salts/IVs/keys from
// crypto/rand, and packet-path write errors must not be dropped.
//
// An Analyzer inspects one type-checked package at a time and reports
// Diagnostics. Analyzers are scoped to exact import paths (with a
// pkg/... form for subtrees) so that, for example, the simulated-clock
// rule applies to the discrete-event simulator but not to the
// real-network Shadowsocks servers.
//
// Findings can be suppressed line-by-line with a justification comment:
//
//	conn.Write(reply) //sslab:allow-errpropagate best-effort reply before failing
//
// or on the line immediately above the offending one. The suppression
// names one analyzer; unrelated diagnostics on the same line still fire.
// See CONTRIBUTING.md for the policy on when suppression is acceptable.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //sslab:allow-<name> suppression comments.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces
	// and why.
	Doc string
	// Scope lists the import paths the analyzer applies to when run over
	// the repository. An entry matches exactly; an entry ending in /...
	// matches the package and its whole subtree ("sslab/cmd/..." covers
	// every command). Empty means every package. Test harnesses bypass
	// scoping and run the analyzer on whatever they load.
	Scope []string
	// IncludeTests selects whether _test.go files are analyzed.
	IncludeTests bool
	// Run inspects one package and reports findings via pass.Reportf.
	Run func(pass *Pass) error
}

// AppliesTo reports whether pkgPath falls under the analyzer's scope.
func (a *Analyzer) AppliesTo(pkgPath string) bool {
	if len(a.Scope) == 0 {
		return true
	}
	for _, entry := range a.Scope {
		if base, ok := strings.CutSuffix(entry, "/..."); ok {
			if pkgPath == base || strings.HasPrefix(pkgPath, base+"/") {
				return true
			}
			continue
		}
		if pkgPath == entry {
			return true
		}
	}
	return false
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the syntax trees to inspect (test files already filtered
	// according to Analyzer.IncludeTests).
	Files []*ast.File
	// Pkg and Info hold full type information for the package.
	Pkg  *types.Package
	Info *types.Info

	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// PkgNameOf resolves an identifier to the imported package it names, or
// nil if the identifier is not an import reference (e.g. a local
// variable shadowing the name). This is what makes the analyzers robust
// against renamed imports and shadowing, unlike a grep.
func (p *Pass) PkgNameOf(id *ast.Ident) *types.PkgName {
	if obj, ok := p.Info.Uses[id]; ok {
		if pn, ok := obj.(*types.PkgName); ok {
			return pn
		}
	}
	return nil
}

// PkgFunc reports whether call invokes the package-level function
// pkgPath.name (resolved through type information, so renamed imports
// and shadowed identifiers are handled). It returns the selector
// identifier for precise diagnostic positions.
func (p *Pass) PkgFunc(call *ast.CallExpr, pkgPath string) (name string, sel *ast.SelectorExpr, ok bool) {
	se, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", nil, false
	}
	base, isIdent := se.X.(*ast.Ident)
	if !isIdent {
		return "", nil, false
	}
	pn := p.PkgNameOf(base)
	if pn == nil || pn.Imported().Path() != pkgPath {
		return "", nil, false
	}
	return se.Sel.Name, se, true
}

// FuncName returns the name a call's function is spelled with — f in
// f(x) and pkg.f(x) alike — or "" for any other callee. Analyzers that
// recognize helpers by name (Fork, NewSource) use it, so their
// stdlib-only fixtures can declare stand-ins.
func FuncName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Result is the full outcome of a multichecker run: the surviving
// diagnostics, the diagnostics waived by //sslab:allow-* directives
// (the -json mode reports both, so CI can diff the complete finding
// set across runs), and the stale directives that name no registered
// analyzer and therefore suppress nothing.
type Result struct {
	Diags      []Diagnostic
	Suppressed []Diagnostic
	Stale      []Directive
}

// Run applies every analyzer (subject to its scope) to every package and
// returns the surviving diagnostics, sorted by position. Suppressed
// findings are dropped here so every front end (CLI, tests) shares the
// same //sslab:allow-* semantics.
func Run(analyzers []*Analyzer, pkgs []*Package) ([]Diagnostic, error) {
	res, err := RunDetailed(analyzers, nil, pkgs)
	if err != nil {
		return nil, err
	}
	return res.Diags, nil
}

// RunDetailed is Run plus the waived findings and stale directives.
// known lists every registered analyzer name for directive validation;
// nil derives it from analyzers. Pass the full registry when running a
// subset (-only), so a directive for an analyzer that merely isn't
// selected is not misreported as stale.
func RunDetailed(analyzers []*Analyzer, known []string, pkgs []*Package) (*Result, error) {
	knownSet := map[string]bool{}
	if known == nil {
		for _, a := range analyzers {
			knownSet[a.Name] = true
		}
	} else {
		for _, name := range known {
			knownSet[name] = true
		}
	}
	res := &Result{}
	for _, pkg := range pkgs {
		// Scan directives once per package over every file (including
		// test files): staleness is a property of the directive, not of
		// whichever analyzers happen to be selected or scoped here.
		allFiles := append(append([]*ast.File(nil), pkg.Files...), pkg.TestFiles...)
		sup, dirs := scanDirectives(pkg.Fset, allFiles, knownSet)
		for _, d := range dirs {
			if !d.Known {
				res.Stale = append(res.Stale, d)
			}
		}
		for _, a := range analyzers {
			if !a.AppliesTo(pkg.Path) {
				continue
			}
			kept, waived, err := runOne(a, pkg, sup)
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.Path, err)
			}
			res.Diags = append(res.Diags, kept...)
			res.Suppressed = append(res.Suppressed, waived...)
		}
	}
	sortDiags(res.Diags)
	sortDiags(res.Suppressed)
	sort.Slice(res.Stale, func(i, j int) bool {
		a, b := res.Stale[i], res.Stale[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line
	})
	return res, nil
}

func sortDiags(out []Diagnostic) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// RunPackage applies one analyzer to an already-loaded package,
// bypassing scope but honoring //sslab:allow-* suppressions. It is the
// entry point the analysistest harness uses, so fixtures exercise the
// exact suppression semantics the CLI applies.
func RunPackage(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	files := append(append([]*ast.File(nil), pkg.Files...), pkg.TestFiles...)
	sup, _ := scanDirectives(pkg.Fset, files, map[string]bool{a.Name: true})
	kept, _, err := runOne(a, pkg, sup)
	return kept, err
}

// runOne applies a single analyzer to a single package and splits its
// diagnostics into kept and suppressed against the package's directive
// set.
func runOne(a *Analyzer, pkg *Package, sup suppressionSet) (kept, suppressed []Diagnostic, err error) {
	files := pkg.Files
	if a.IncludeTests {
		files = append(append([]*ast.File(nil), pkg.Files...), pkg.TestFiles...)
	}
	pass := &Pass{
		Analyzer: a,
		Fset:     pkg.Fset,
		Files:    files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
	}
	if err := a.Run(pass); err != nil {
		return nil, nil, err
	}
	for _, d := range pass.diags {
		if sup.allows(a.Name, d.Pos) {
			suppressed = append(suppressed, d)
		} else {
			kept = append(kept, d)
		}
	}
	return kept, suppressed, nil
}
