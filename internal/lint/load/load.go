// Package load turns `go list` package patterns into parsed,
// type-checked packages for the kifmm-lint analyzers — a small,
// offline-capable stand-in for golang.org/x/tools/go/packages.
//
// It shells out to `go list -deps -export -json`, which compiles the
// matched packages and their dependencies into the build cache and
// reports an export-data file per dependency. Target packages (the
// ones the patterns matched) are then re-parsed from source with
// comments and type-checked with go/types; every import — stdlib or
// in-module — resolves through the gc export data, so no network, no
// GOPATH and no second source type-check of dependencies is needed.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one type-checked target package, carrying everything a
// lint analyzer reads.
type Package struct {
	// Path is the package's full import path (e.g. "repro/internal/fmm").
	Path string
	// Fset maps positions for Files.
	Fset *token.FileSet
	// Files are the parsed non-test Go files, with comments.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// TypesInfo holds Uses/Defs/Types/Selections for Files.
	TypesInfo *types.Info
}

// listEntry is the subset of `go list -json` output the loader reads.
type listEntry struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	Export     string
	DepOnly    bool
	Error      *listError
}

type listError struct {
	Err string
}

// Load resolves patterns (default "./...") relative to dir (the current
// directory when empty) into type-checked packages. Packages that are
// only dependencies of the matched set are loaded from export data, not
// returned.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	entries, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string)
	var targets []listEntry
	for _, e := range entries {
		if e.Error != nil {
			return nil, fmt.Errorf("load: %s: %s", e.ImportPath, e.Error.Err)
		}
		if e.Export != "" {
			exports[e.ImportPath] = e.Export
		}
		if !e.DepOnly {
			targets = append(targets, e)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	var pkgs []*Package
	for _, t := range targets {
		if len(t.GoFiles) == 0 {
			continue
		}
		if len(t.CgoFiles) > 0 {
			return nil, fmt.Errorf("load: %s: cgo packages are not supported", t.ImportPath)
		}
		pkg, err := check(fset, imp, t.ImportPath, t.Dir, t.GoFiles)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// goList runs `go list -deps -export -json` and decodes the entry
// stream. Stderr is surfaced on failure — it carries the compiler
// diagnostics when a matched package does not build.
func goList(dir string, patterns []string) ([]listEntry, error) {
	args := append([]string{
		"list", "-deps", "-export",
		"-json=ImportPath,Dir,GoFiles,CgoFiles,Export,DepOnly,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("load: go list %s: %v\n%s",
			strings.Join(patterns, " "), err, strings.TrimSpace(stderr.String()))
	}
	var entries []listEntry
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var e listEntry
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("load: decoding go list output: %v", err)
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// exportImporter returns a types.Importer that resolves import paths
// through gc export-data files (as produced by `go list -export`).
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("load: no export data for %q", path)
		}
		return os.Open(f)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// check parses goFiles under dir (with comments) and type-checks them
// as package path, resolving imports through imp.
func check(fset *token.FileSet, imp types.Importer, path, dir string, goFiles []string) (*Package, error) {
	var files []*ast.File
	for _, gf := range goFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, gf), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("load: %v", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("load: type-checking %s: %v", path, err)
	}
	return &Package{
		Path:      path,
		Fset:      fset,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}
