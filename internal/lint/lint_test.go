package lint_test

import (
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/load"
)

// fixtureRoot prefixes the import path of every fixture package. The
// fixtures are ordinary packages of the module (go list accepts
// patterns under testdata when they are spelled out), compiled against
// its real dependencies, and each path ends in the package it stands in
// for, so the scoped analyzers treat .../src/repro/internal/fmm as
// internal/fmm.
const fixtureRoot = "repro/internal/lint/testdata/src/"

// allowPkg is the //lint:allow fixture, checked by TestAllowSuppression.
const allowPkg = fixtureRoot + "repro/internal/parfmm"

var fixtures = sync.OnceValues(func() ([]*load.Package, error) {
	return load.Load("testdata/src", "./...")
})

// loadFixtures returns every fixture package, loaded once per test
// binary with the loader kifmm-lint uses.
func loadFixtures(t *testing.T) []*load.Package {
	t.Helper()
	pkgs, err := fixtures()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no fixture packages under testdata/src")
	}
	return pkgs
}

// TestFixtures runs the whole suite over every fixture package and
// matches the findings against the package's // want `regex` comments:
// a finding with no matching want fails, and so does a want with no
// matching finding. A fixture with no wants asserts the suite is silent
// on it, and every fixture asserts the analyzers scoped elsewhere stay
// silent.
// The engine fixture has tests of its own below.
func TestFixtures(t *testing.T) {
	for _, pkg := range loadFixtures(t) {
		if pkg.Path == allowPkg || pkg.Path == enginePkg {
			continue
		}
		t.Run(strings.TrimPrefix(pkg.Path, fixtureRoot), func(t *testing.T) {
			checkWants(t, pkg, lint.Run([]*load.Package{pkg}))
		})
	}
}

// enginePkg is the ctxfirst fixture. It is neither a deterministic,
// boundary, nor hot-path package, so only ctxfirst may fire there.
const enginePkg = fixtureRoot + "repro/internal/engine"

// fixture returns the fixture package with the given import path.
func fixture(t *testing.T, path string) *load.Package {
	t.Helper()
	for _, pkg := range loadFixtures(t) {
		if pkg.Path == path {
			return pkg
		}
	}
	t.Fatalf("fixture %s not loaded", path)
	return nil
}

func TestCtxFirstFixture(t *testing.T) {
	pkg := fixture(t, enginePkg)
	if len(parseWants(t, pkg)) == 0 {
		t.Fatal("engine fixture has no want comments")
	}
	checkWants(t, pkg, lint.Run([]*load.Package{pkg}))
}

// TestScopedAnalyzersSilentElsewhere: the package-scoped analyzers must
// not fire outside their package lists.
func TestScopedAnalyzersSilentElsewhere(t *testing.T) {
	for _, f := range lint.Run([]*load.Package{fixture(t, enginePkg)}) {
		if f.Analyzer != "ctxfirst" {
			t.Errorf("scoped analyzer fired out of scope: %s", f)
		}
	}
}

// checkWants matches findings against the package's want comments in
// both directions.
func checkWants(t *testing.T, pkg *load.Package, findings []lint.Finding) {
	t.Helper()
	wants := parseWants(t, pkg)
	for _, f := range findings {
		if !claimWant(wants, f) {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no finding matching want %s", w.file, w.line, w.src)
		}
	}
}

// A want is one parsed // want `regex` expectation, anchored to the
// line its comment starts on.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	src     string
	matched bool
}

// wantLitRE extracts the Go string literals (back- or double-quoted)
// that follow the want marker.
var wantLitRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

func parseWants(t *testing.T, pkg *load.Package) []*want {
	t.Helper()
	var wants []*want
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), " "), "want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				lits := wantLitRE.FindAllString(rest, -1)
				if len(lits) == 0 {
					t.Fatalf("%s: malformed want comment: no string literal in %q", pos, c.Text)
				}
				for _, lit := range lits {
					pat, err := strconv.Unquote(lit)
					if err != nil {
						t.Fatalf("%s: malformed want literal %s: %v", pos, lit, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: want pattern %s: %v", pos, lit, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re, src: lit})
				}
			}
		}
	}
	return wants
}

// claimWant marks the first unmatched want on the finding's line whose
// pattern matches its message, reporting whether one was found.
func claimWant(wants []*want, f lint.Finding) bool {
	for _, w := range wants {
		if w.matched || w.file != f.Pos.Filename || w.line != f.Pos.Line {
			continue
		}
		if w.re.MatchString(f.Message) {
			w.matched = true
			return true
		}
	}
	return false
}
