package lint

import (
	"go/ast"
	"go/types"
)

// Globalrand flags package-level math/rand functions. The global source is
// process-wide shared state: two goroutines drawing from it race for
// position in one stream, so equal seeds stop implying equal draws the
// moment scheduling varies. PR 5's byte-determinism work moved every draw
// onto per-sender seeded *rand.Rand streams for exactly this reason;
// methods on an explicit *rand.Rand (and the constructors that build one:
// v1's New/NewSource/NewZipf, v2's New/NewPCG/NewChaCha8/NewZipf) stay
// legal.
var Globalrand = &Analyzer{
	Name: "globalrand",
	Doc:  "no package-level math/rand functions; randomness must flow through seeded *rand.Rand streams",
	Run:  runGlobalrand,
}

// randConstructors build explicit seeded streams — the blessed pattern.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

func runGlobalrand(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if p := fn.Pkg().Path(); p != "math/rand" && p != "math/rand/v2" {
				return true
			}
			if fn.Type().(*types.Signature).Recv() != nil {
				return true // *rand.Rand / *rand.Zipf methods: seeded streams
			}
			if randConstructors[fn.Name()] {
				return true
			}
			pass.Reportf(sel.Pos(), "rand.%s draws from the shared global source; draw from a seeded *rand.Rand stream instead", fn.Name())
			return true
		})
	}
	return nil
}
