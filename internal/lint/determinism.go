package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// deterministicPkgs are the engine packages whose results must be
// bitwise identical across runs, lane widths and rank counts. Anything
// order- or clock-dependent inside them is a correctness hazard, not a
// style issue.
var deterministicPkgs = []string{
	"internal/fmm",
	"internal/exec",
	"internal/parfmm",
	"internal/translate",
	"internal/fft",
}

// determinism flags constructs that break bitwise reproducibility in
// the deterministic engine packages:
//
//   - ranging over a map while accumulating into floats or complexes,
//     or appending to a slice (map iteration order is randomized, and
//     float addition is not associative — the same inputs produce
//     different bits on different runs);
//   - time.Now (wall-clock reads; timing-only uses feeding Stats are
//     annotated, keeping each exception visible);
//   - importing math/rand or math/rand/v2 (randomness belongs to
//     callers and test harnesses, not the engine).
var determinism = &Analyzer{
	Name: "determinism",
	Run:  runDeterminism,
}

func runDeterminism(pass *Pass) {
	if !pathMatches(pass.Path, deterministicPkgs...) {
		return
	}
	for _, file := range pass.Files {
		for _, imp := range file.Imports {
			if p, err := strconv.Unquote(imp.Path.Value); err == nil && (p == "math/rand" || p == "math/rand/v2") {
				pass.Reportf(imp.Pos(), "import of %s in deterministic package %s: randomness breaks bitwise reproducibility; inject a seeded source from outside the engine", p, pass.Types.Name())
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if isPkgFunc(pass.TypesInfo, n, "time", "Now") {
					pass.Reportf(n.Pos(), "time.Now in deterministic package %s: wall-clock reads are nondeterministic; annotate timing-only observability uses with //lint:allow determinism <reason>", pass.Types.Name())
				}
			case *ast.RangeStmt:
				if isMapRange(pass.TypesInfo, n) {
					reportMapRangeBody(pass, n)
				}
			}
			return true
		})
	}
}

func isMapRange(info *types.Info, rs *ast.RangeStmt) bool {
	t := info.TypeOf(rs.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// reportMapRangeBody flags order-sensitive operations in the body of a
// map-range loop. Nested map ranges are skipped — they report their own
// bodies — but nested slice loops are walked, since their work still
// runs once per (randomly ordered) map element.
func reportMapRangeBody(pass *Pass, rs *ast.RangeStmt) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if isMapRange(pass.TypesInfo, n) {
				return false
			}
		case *ast.AssignStmt:
			switch n.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				for _, lhs := range n.Lhs {
					if isFloatish(pass.TypesInfo.TypeOf(lhs)) {
						pass.Reportf(n.Pos(), "floating-point accumulation inside a map-range loop: iteration order is randomized and float addition is not associative; iterate sorted keys instead")
					}
				}
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok {
				if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
					pass.Reportf(n.Pos(), "append inside a map-range loop produces a randomly ordered slice: iterate sorted keys, or sort the result before it is consumed")
				}
			}
		}
		return true
	})
}

func isFloatish(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}
