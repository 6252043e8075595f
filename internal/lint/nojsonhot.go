package lint

import (
	"go/ast"
	"go/types"
	"strconv"
)

// jsonBanPkgs are the compute hot-path packages where encoding/json
// must never appear at all: they run per box, per point, per spectrum
// line — any JSON there is a smuggled slow path.
var jsonBanPkgs = []string{
	"internal/fft",
	"internal/kernels",
	"internal/translate",
	"internal/fmm",
	"internal/exec",
	"internal/wire",
}

// bulkWirePkgs get a scoped rule: JSON is fine for control payloads
// (hello, heartbeats, job headers, response meta) but banned in the
// bulk-frame path — any function whose signature traffics in raw
// float64 arrays moves coordinates, densities or potentials and must
// use the internal/wire little-endian primitives. The list covers
// every layer bulk arrays cross: the cluster TCP frames, the HTTP
// service's negotiated bodies, and the client mirroring them.
var bulkWirePkgs = []string{
	"internal/cluster",
	"internal/service",
	"repro/client",
}

// noJSONHot bans encoding/json from the compute hot-path packages
// outright, bans it from bulk-wire-layer functions that handle raw
// float64 arrays, and flags fmt.Sprintf inside loops in any of
// those packages (per-element formatting allocates on paths that run
// per point).
var noJSONHot = &Analyzer{
	Name: "nojsonhot",
	Run:  runNoJSONHot,
}

func runNoJSONHot(pass *Pass) {
	full := pathMatches(pass.Path, jsonBanPkgs...)
	bulk := pathMatches(pass.Path, bulkWirePkgs...)
	if !full && !bulk {
		return
	}
	for _, file := range pass.Files {
		if full {
			for _, imp := range file.Imports {
				if p, err := strconv.Unquote(imp.Path.Value); err == nil && p == "encoding/json" {
					pass.Reportf(imp.Pos(), "encoding/json import in hot-path package %s: serialization belongs in the service/control layers", pass.Types.Name())
				}
			}
		}
		if bulk {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !handlesBulkFloats(pass.TypesInfo, fd.Type) {
					continue
				}
				if pos, ok := usesPackage(pass.TypesInfo, fd.Body, "encoding/json"); ok {
					pass.Reportf(pos, "encoding/json on the bulk-frame path (%s handles raw float64 arrays): bulk data crosses the wire as raw little-endian words, JSON is control-plane only", fd.Name.Name)
				}
			}
		}
		reportSprintfInLoops(pass, file)
	}
}

// handlesBulkFloats reports whether any parameter or result is (a
// pointer to) []float64 or [][]float64 — the signature shape of the
// bulk coordinate/density/potential path. Named struct fields are
// deliberately not traversed: a control-plane header that contains a
// slice field is not itself the bulk path.
func handlesBulkFloats(info *types.Info, ft *ast.FuncType) bool {
	check := func(fl *ast.FieldList) bool {
		if fl == nil {
			return false
		}
		for _, f := range fl.List {
			if isBulkFloatType(info.TypeOf(f.Type)) {
				return true
			}
		}
		return false
	}
	return check(ft.Params) || check(ft.Results)
}

func isBulkFloatType(t types.Type) bool {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
			continue
		case *types.Slice:
			elem := u.Elem()
			if b, ok := elem.Underlying().(*types.Basic); ok && b.Kind() == types.Float64 {
				return true
			}
			if inner, ok := elem.(*types.Slice); ok {
				if b, ok := inner.Elem().Underlying().(*types.Basic); ok && b.Kind() == types.Float64 {
					return true
				}
			}
			return false
		default:
			return false
		}
	}
}

// reportSprintfInLoops flags fmt.Sprintf calls lexically inside any
// for/range loop in the file. Positions are deduplicated so nested
// loops report once.
func reportSprintfInLoops(pass *Pass, file *ast.File) {
	seen := make(map[ast.Node]bool)
	ast.Inspect(file, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch n := n.(type) {
		case *ast.ForStmt:
			body = n.Body
		case *ast.RangeStmt:
			body = n.Body
		default:
			return true
		}
		ast.Inspect(body, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok || seen[call] {
				return true
			}
			if isPkgFunc(pass.TypesInfo, call, "fmt", "Sprintf") {
				seen[call] = true
				pass.Reportf(call.Pos(), "fmt.Sprintf inside a loop in hot-path package %s: per-element formatting allocates; hoist it out of the loop or format lazily", pass.Types.Name())
			}
			return true
		})
		return true
	})
}
