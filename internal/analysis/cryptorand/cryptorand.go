// Package cryptorand forbids importing math/rand in the Shadowsocks
// implementation packages. Salts, IVs and keys there are security- and
// fingerprint-relevant: §2 of the paper rests on ciphertext (including
// the leading IV/salt) being indistinguishable from uniform random
// bytes, and a math/rand-derived salt is both predictable and, under
// entropy analysis, subtly non-uniform in generation pattern. Test
// files are exempt — deterministic vectors legitimately use seeded
// math/rand there.
package cryptorand

import (
	"strconv"

	"sslab/internal/analysis"
)

// Analyzer flags math/rand imports in crypto-bearing packages.
var Analyzer = &analysis.Analyzer{
	Name: "cryptorand",
	Doc: "require crypto/rand (never math/rand) in the Shadowsocks " +
		"implementation packages: salts, IVs and keys must be " +
		"cryptographically random",
	Scope:        analysis.WirePackages,
	IncludeTests: false,
	Run:          run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Pos(),
					"%s is not cryptographically secure; salts/IVs/keys in this package must come from crypto/rand", path)
			}
		}
	}
	return nil
}
