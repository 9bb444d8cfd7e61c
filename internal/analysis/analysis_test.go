package analysis

import (
	"go/ast"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module for loader tests.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// callCounter reports every function call — enough to exercise loading,
// scoping and suppression end to end.
var callCounter = &Analyzer{
	Name:         "callcount",
	Doc:          "reports every call expression (test analyzer)",
	IncludeTests: true,
	Run: func(pass *Pass) error {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					pass.Reportf(call.Pos(), "call expression")
				}
				return true
			})
		}
		return nil
	},
}

func TestLoaderAndSuppression(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module example.test/m\n\ngo 1.22\n",
		"a/a.go": `package a

func f() int { return 0 }

func g() int {
	return f() // finding 1
}

func h() int {
	//sslab:allow-callcount justified above
	return f()
}

func i() int {
	return f() //sslab:allow-callcount justified inline
}
`,
		"a/a_test.go": `package a

func fromTest() int {
	return f() // finding 2 (test files included)
}
`,
		// b imports a, exercising module-internal import resolution.
		"b/b.go": `package b

import "example.test/m/a"

var V = a.F2

`,
		"a/exported.go": `package a

func F2() int { return 0 }
`,
	})

	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("loaded %d packages, want 2 (a and b)", len(pkgs))
	}

	diags, err := Run([]*Analyzer{callCounter}, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	// Expected: f() in g, f() in a_test.go. Suppressed: h (line above),
	// i (inline). b has no calls.
	if len(diags) != 2 {
		for _, d := range diags {
			t.Logf("got: %s", d)
		}
		t.Fatalf("got %d diagnostics, want 2", len(diags))
	}
	for _, d := range diags {
		if d.Analyzer != "callcount" {
			t.Errorf("diagnostic from %q, want callcount", d.Analyzer)
		}
	}
}

func TestScope(t *testing.T) {
	a := &Analyzer{Name: "x", Scope: []string{"mod/internal/gfw"}}
	for path, want := range map[string]bool{
		"mod/internal/gfw":        true,
		"mod/internal/gfw/sub":    false, // exact entries do not match subtrees
		"mod/internal/gfwother":   false,
		"mod/internal/experiment": false,
	} {
		if got := a.AppliesTo(path); got != want {
			t.Errorf("AppliesTo(%q) = %v, want %v", path, got, want)
		}
	}
	tree := &Analyzer{Name: "x", Scope: []string{"mod/cmd/..."}}
	for path, want := range map[string]bool{
		"mod/cmd":          true,
		"mod/cmd/tool":     true,
		"mod/cmdother":     false,
		"mod/internal/gfw": false,
	} {
		if got := tree.AppliesTo(path); got != want {
			t.Errorf("subtree AppliesTo(%q) = %v, want %v", path, got, want)
		}
	}
	unscoped := &Analyzer{Name: "y"}
	if !unscoped.AppliesTo("anything/at/all") {
		t.Error("empty scope must match every package")
	}
}

// TestPackageListsCoverModule: every internal package of this module is
// in exactly one of SimPackages and WirePackages, or is tooling, and
// every list entry names a package that exists — so a new package
// cannot fall outside every scope unnoticed.
func TestPackageListsCoverModule(t *testing.T) {
	tooling := map[string]bool{"sslab/internal/analysis": true, "sslab/internal/prof": true}
	listed := map[string]int{}
	for _, entry := range append(append([]string(nil), SimPackages...), WirePackages...) {
		listed[entry]++
		dir, _ := strings.CutSuffix(strings.TrimPrefix(entry, "sslab"), "/...")
		if _, err := os.Stat(filepath.Join("..", "..", filepath.FromSlash(dir))); err != nil {
			t.Errorf("listed package %s: %v", entry, err)
		}
	}
	internal, err := os.ReadDir(filepath.Join("..", "..", "internal"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs := []string{"sslab", "sslab/cmd/..."}
	for _, d := range internal {
		if d.IsDir() {
			pkgs = append(pkgs, "sslab/internal/"+d.Name())
		}
	}
	for _, pkg := range pkgs {
		if n := listed[pkg]; n != 1 && !tooling[pkg] {
			t.Errorf("%s is in %d package lists, want exactly one (analysis.SimPackages or WirePackages)", pkg, n)
		}
	}
}

func TestWithout(t *testing.T) {
	got := Without([]string{"a", "b", "c"}, "c", "a")
	if strings.Join(got, ",") != "b" {
		t.Errorf("Without = %v, want [b]", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Without accepted an exception that names no listed entry")
		}
	}()
	Without([]string{"a"}, "z")
}

func TestExternalTestPackage(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module example.test/m\n\ngo 1.22\n",
		"a/a.go": `package a

func F() int { return 0 }
`,
		"a/ext_test.go": `package a_test

import "example.test/m/a"

var _ = a.F() // finding (external test package)
`,
	})
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	// a plus its external test package, both under path example.test/m/a.
	if len(pkgs) != 2 {
		t.Fatalf("loaded %d packages, want 2", len(pkgs))
	}
	diags, err := Run([]*Analyzer{callCounter}, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1 (the call in ext_test.go)", len(diags))
	}
}
