package lint

import "go/ast"

// boundaryPkgs are the packages whose exported surface is the API
// boundary: every error they let escape must carry an errs code so the
// service can map it to an HTTP status and the client can reconstruct
// the identical typed error on the far side of the wire.
var boundaryPkgs = []string{
	"internal/service",
	"internal/cluster",
	"client",
}

// errTaxonomy flags fmt.Errorf and errors.New calls returned directly
// from exported functions in the boundary packages. An untyped error
// there surfaces as a generic 500 instead of its real class (400, 404,
// 413, 499, 503, 504) and breaks errors.Is branching on the client.
// Wrap with errs.Newf/errs.Wrap, or errs.Typed when the cause may
// already carry a code.
var errTaxonomy = &Analyzer{
	Name: "errtaxonomy",
	Run:  runErrTaxonomy,
}

func runErrTaxonomy(pass *Pass) {
	if !pathMatches(pass.Path, boundaryPkgs...) {
		return
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				ret, ok := n.(*ast.ReturnStmt)
				if !ok {
					return true
				}
				for _, res := range ret.Results {
					call, ok := res.(*ast.CallExpr)
					if !ok {
						continue
					}
					switch {
					case isPkgFunc(pass.TypesInfo, call, "fmt", "Errorf"):
						pass.Reportf(call.Pos(), "untyped fmt.Errorf escapes exported %s: errors crossing the API boundary must carry an errs code (use errs.Newf, or errs.Wrap/errs.Typed around a cause)", fd.Name.Name)
					case isPkgFunc(pass.TypesInfo, call, "errors", "New"):
						pass.Reportf(call.Pos(), "untyped errors.New escapes exported %s: errors crossing the API boundary must carry an errs code (use errs.New with a Code)", fd.Name.Name)
					}
				}
				return true
			})
		}
	}
}
