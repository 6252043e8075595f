// kifmm-lint is the repository's static-analysis driver: it runs the
// internal/lint suite (determinism, ctxfirst, errtaxonomy, nojsonhot)
// over package patterns and reports every invariant violation that is
// not annotated with a //lint:allow <analyzer> <reason> comment.
//
// Usage:
//
//	go run ./cmd/kifmm-lint ./...
//
// With no patterns it checks ./... . Exit status: 0 when clean, 1 when
// findings were reported, 2 on a load error. Stale or malformed
// //lint:allow annotations are findings too, so suppressions cannot
// outlive the code they excuse.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/buildinfo"
	"repro/internal/lint"
	"repro/internal/lint/load"
)

func main() {
	version := flag.Bool("version", false, "print version information and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: kifmm-lint [flags] [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Runs the kifmm static-analysis suite over the given package\npatterns (default ./...). Suppress an intentional exception with a\n//lint:allow <analyzer> <reason> comment on or directly above the\nflagged line.\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.String("kifmm-lint"))
		return
	}

	pkgs, err := load.Load("", flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kifmm-lint:", err)
		os.Exit(2)
	}
	findings := lint.Run(pkgs)
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "kifmm-lint: %d finding(s) in %d package(s)\n", len(findings), len(pkgs))
		os.Exit(1)
	}
}
