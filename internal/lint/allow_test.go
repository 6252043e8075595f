package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/load"
)

const allowFixture = "testdata/src/repro/internal/parfmm/fixture.go"

// lineOf locates the first fixture line ending in marker so the
// assertions survive edits that shift line numbers.
func lineOf(t *testing.T, src []byte, marker string) int {
	t.Helper()
	for i, l := range strings.Split(string(src), "\n") {
		if strings.HasSuffix(l, marker) {
			return i + 1
		}
	}
	t.Fatalf("marker %q not found in %s", marker, allowFixture)
	return 0
}

// TestAllowSuppression runs the full suite over the annotation fixture
// and checks every //lint:allow behavior: a matching annotation
// silences its finding (same-line and block form), an unannotated
// finding is reported, and stale, malformed and unknown-analyzer
// annotations are findings themselves.
func TestAllowSuppression(t *testing.T) {
	src, err := os.ReadFile(filepath.FromSlash(allowFixture))
	if err != nil {
		t.Fatal(err)
	}
	var findings []lint.Finding
	for _, pkg := range loadFixtures(t) {
		if pkg.Path == allowPkg {
			findings = lint.Run([]*load.Package{pkg})
		}
	}

	type key struct {
		analyzer string
		line     int
	}
	got := make(map[key]string, len(findings))
	for _, f := range findings {
		got[key{f.Analyzer, f.Pos.Line}] = f.Message
	}

	expect := []struct {
		analyzer string
		marker   string
		contains string
	}{
		{"determinism", "marker: reported finding", "time.Now"},
		{lint.AllowAnalyzer, "marker: stale annotation", "stale //lint:allow determinism"},
		{lint.AllowAnalyzer, "//lint:allow", "malformed //lint:allow comment"},
		{lint.AllowAnalyzer, "marker: unknown analyzer", `unknown analyzer "nosuchanalyzer"`},
	}
	for _, e := range expect {
		line := lineOf(t, src, e.marker)
		msg, ok := got[key{e.analyzer, line}]
		if !ok {
			t.Errorf("missing %s finding at line %d (%s); got %v", e.analyzer, line, e.marker, findings)
			continue
		}
		if !strings.Contains(msg, e.contains) {
			t.Errorf("finding at line %d = %q, want substring %q", line, msg, e.contains)
		}
	}
	if len(findings) != len(expect) {
		t.Errorf("got %d findings, want %d:\n", len(findings), len(expect))
		for _, f := range findings {
			t.Logf("  %s", f)
		}
	}

	// The two annotated findings must be silenced.
	for _, marker := range []string{
		"fixture exercises same-line suppression",
		"fixture exercises block-form suppression",
	} {
		line := lineOf(t, src, marker)
		for k := range got {
			if k.line == line || k.line == line+1 {
				t.Errorf("finding near suppressed line %d (%s): %s", line, marker, got[k])
			}
		}
	}
}
