// Package lint is the kifmm repository's static-analysis suite: four
// analyzers that enforce invariants the codebase otherwise only checks
// at runtime, or not at all:
//
//   - determinism: no map-iteration-order-dependent accumulation, no
//     wall-clock or randomness inside the bitwise-deterministic engine
//     packages.
//   - ctxfirst: library code threads the caller's context — no
//     context.Background() outside cmd/; exported
//     goroutine-launching functions take ctx first.
//   - errtaxonomy: errors escaping the service/cluster/client boundary
//     carry an errs code.
//   - nojsonhot: no encoding/json (or per-element fmt.Sprintf) on
//     compute or wire hot paths.
//
// Packages come from load.Load, the same loader for the kifmm-lint
// command and for the fixture tests, whose packages live under
// testdata/src.
//
// Intentional exceptions are annotated in the source with
//
//	//lint:allow <analyzer> <reason>
//
// on the offending line or the comment block directly above it, so
// every exception is visible in the diff that introduces it. A stale
// annotation — one that no longer suppresses anything — is itself a
// finding, so exceptions cannot outlive the code they excuse.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lint/load"
)

// An Analyzer is one rule: a name, used in findings and in
// //lint:allow comments, and a Run function called once per package.
type Analyzer struct {
	Name string
	Run  func(*Pass)
}

// A Pass is one analyzer's run over one package.
type Pass struct {
	*load.Package
	report func(token.Pos, string)
}

// Reportf reports a formatted finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(pos, fmt.Sprintf(format, args...))
}

// suite is every analyzer, in stable order.
var suite = []*Analyzer{determinism, ctxFirst, errTaxonomy, noJSONHot}

// AllowAnalyzer is the pseudo-analyzer name under which suite-level
// findings about //lint:allow comments themselves (stale, malformed,
// unknown analyzer) are reported. It cannot be suppressed.
const AllowAnalyzer = "lintallow"

// A Finding is one resolved diagnostic: an analyzer name, a position
// and a message, after //lint:allow suppression has been applied.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Pos, f.Message, f.Analyzer)
}

// Run applies the whole suite to every package, honors //lint:allow
// suppression comments, and returns the surviving findings sorted by
// position. Suppression comments that are malformed, name an unknown
// analyzer, or no longer match a finding are reported as AllowAnalyzer
// findings.
func Run(pkgs []*load.Package) []Finding {
	var findings []Finding
	for _, pkg := range pkgs {
		var raw []Finding
		for _, a := range suite {
			name := a.Name
			a.Run(&Pass{Package: pkg, report: func(pos token.Pos, msg string) {
				raw = append(raw, Finding{Analyzer: name, Pos: pkg.Fset.Position(pos), Message: msg})
			}})
		}
		findings = append(findings, applyAllows(pkg, raw)...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
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
	return findings
}

// allowComment is one parsed //lint:allow comment.
type allowComment struct {
	analyzer string
	reason   string
	pos      token.Position
	bad      string // non-empty when the comment itself is malformed
	used     bool
}

const allowPrefix = "//lint:allow"

// applyAllows filters raw findings through the package's //lint:allow
// comments and appends suite-level findings for comments that are
// malformed, reference an unknown analyzer, or suppress nothing.
// An allow comment matches a finding when both are in the same file and
// the comment sits on the finding's line, or above it separated only by
// comment lines (so stacked annotations and doc comments work).
func applyAllows(pkg *load.Package, raw []Finding) []Finding {
	allows := make(map[string][]*allowComment) // filename -> comments
	commentLines := make(map[string]map[int]bool)
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				start := pkg.Fset.Position(c.Pos())
				end := pkg.Fset.Position(c.End())
				lines := commentLines[start.Filename]
				if lines == nil {
					lines = make(map[int]bool)
					commentLines[start.Filename] = lines
				}
				for l := start.Line; l <= end.Line; l++ {
					lines[l] = true
				}
				if ac := parseAllow(c.Text, start); ac != nil {
					allows[start.Filename] = append(allows[start.Filename], ac)
				}
			}
		}
	}

	var out []Finding
	for _, f := range raw {
		if suppressed(f, allows[f.Pos.Filename], commentLines[f.Pos.Filename]) {
			continue
		}
		out = append(out, f)
	}
	for _, file := range allows {
		for _, ac := range file {
			switch {
			case ac.bad != "":
				out = append(out, Finding{Analyzer: AllowAnalyzer, Pos: ac.pos, Message: ac.bad})
			case !known(ac.analyzer):
				out = append(out, Finding{
					Analyzer: AllowAnalyzer, Pos: ac.pos,
					Message: fmt.Sprintf("unknown analyzer %q in %s comment", ac.analyzer, allowPrefix),
				})
			case !ac.used:
				out = append(out, Finding{
					Analyzer: AllowAnalyzer, Pos: ac.pos,
					Message: fmt.Sprintf("stale %s %s: no %s finding here — remove the annotation", allowPrefix, ac.analyzer, ac.analyzer),
				})
			}
		}
	}
	return out
}

// known reports whether name is an analyzer of the suite.
func known(name string) bool {
	for _, a := range suite {
		if a.Name == name {
			return true
		}
	}
	return false
}

// parseAllow recognizes //lint:allow comments; nil means the comment is
// not an allow annotation at all.
func parseAllow(text string, pos token.Position) *allowComment {
	if !strings.HasPrefix(text, allowPrefix) {
		return nil
	}
	rest := strings.TrimPrefix(text, allowPrefix)
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return nil // e.g. //lint:allowance — not ours
	}
	fields := strings.Fields(rest)
	if len(fields) < 2 {
		return &allowComment{
			pos: pos,
			bad: fmt.Sprintf("malformed %s comment: want %s <analyzer> <reason>", allowPrefix, allowPrefix),
		}
	}
	return &allowComment{
		analyzer: fields[0],
		reason:   strings.Join(fields[1:], " "),
		pos:      pos,
	}
}

// suppressed reports whether any allow comment matches the finding,
// marking the comment used.
func suppressed(f Finding, allows []*allowComment, comments map[int]bool) bool {
	if f.Analyzer == AllowAnalyzer {
		return false
	}
	hit := false
	for _, ac := range allows {
		if ac.bad != "" || ac.analyzer != f.Analyzer {
			continue
		}
		if ac.pos.Line == f.Pos.Line || reachesThroughComments(ac.pos.Line, f.Pos.Line, comments) {
			ac.used = true
			hit = true
		}
	}
	return hit
}

// reachesThroughComments reports whether every line strictly between
// from and to is part of a comment, i.e. the annotation block sits
// directly above the finding.
func reachesThroughComments(from, to int, comments map[int]bool) bool {
	if from >= to {
		return false
	}
	for l := from + 1; l < to; l++ {
		if !comments[l] {
			return false
		}
	}
	return true
}

// --- shared analyzer helpers ---

// pathMatches reports whether pkgPath equals or ends with one of the
// given path suffixes on an element boundary, so configured names like
// "internal/fmm" match both "repro/internal/fmm" and the fixture package
// ".../testdata/src/repro/internal/fmm".
func pathMatches(pkgPath string, suffixes ...string) bool {
	for _, s := range suffixes {
		if pkgPath == s || strings.HasSuffix(pkgPath, "/"+s) {
			return true
		}
	}
	return false
}

// isPkgFunc reports whether the call invokes the package-level function
// pkgPath.name, resolved through type information (so import aliases
// and shadowing are handled).
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	return fn.Name() == name && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath
}

// usesPackage reports (at the first use position) whether the subtree
// mentions any identifier imported from pkgPath — e.g. json.Marshal,
// json.NewEncoder, or a json.Decoder type reference.
func usesPackage(info *types.Info, n ast.Node, pkgPath string) (token.Pos, bool) {
	var pos token.Pos
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if pn, ok := info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == pkgPath {
			pos, found = id.Pos(), true
			return false
		}
		return true
	})
	return pos, found
}

// firstParamIsContext reports whether the function type's first
// parameter is context.Context.
func firstParamIsContext(info *types.Info, ft *ast.FuncType) bool {
	if ft.Params == nil || len(ft.Params.List) == 0 {
		return false
	}
	t := info.TypeOf(ft.Params.List[0].Type)
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}
