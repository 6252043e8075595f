package lint

import (
	"go/ast"
	"strings"
)

// ctxFirst enforces the repository's context-first convention in
// library packages (everything that is not a main package or under
// cmd/):
//
//   - context.Background() is banned — library code threads the
//     caller's ctx so cancellation lands within one pass everywhere.
//     The deliberate exceptions (the service's detached singleflight
//     build, the simulated MPI ranks) carry //lint:allow ctxfirst
//     annotations, which keeps every exception visible in the diff
//     that introduces it.
//   - an exported function or method that launches goroutines must
//     take a context.Context as its first (non-receiver) parameter:
//     whoever starts concurrent work must be able to stop it.
var ctxFirst = &Analyzer{
	Name: "ctxfirst",
	Run:  runCtxFirst,
}

func runCtxFirst(pass *Pass) {
	if pass.Types.Name() == "main" || strings.Contains(pass.Path, "/cmd/") {
		return
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && isPkgFunc(pass.TypesInfo, call, "context", "Background") {
				pass.Reportf(call.Pos(), "context.Background() in library code: thread the caller's ctx; a deliberate exception annotates with //lint:allow ctxfirst <reason>")
			}
			return true
		})
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			if launchesGoroutine(fd.Body) && !firstParamIsContext(pass.TypesInfo, fd.Type) {
				pass.Reportf(fd.Name.Pos(), "exported %s launches goroutines but does not take a context.Context first argument: the caller must be able to bound the work it starts", fd.Name.Name)
			}
		}
	}
}

// launchesGoroutine reports whether the body contains a go statement,
// including inside closures it defines (a closure's goroutines are
// still work this function wires up).
func launchesGoroutine(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.GoStmt); ok {
			found = true
		}
		return !found
	})
	return found
}
