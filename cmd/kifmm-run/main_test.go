package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestProcsBeyondPatchesRefused: -dist uniform is a single patch and ranks
// partition whole patches, so -procs above the patch count used to run
// with every point on rank 0. The command refuses it and names the
// distributions that have patches to spread; the same rank count on one
// of those runs.
func TestProcsBeyondPatchesRefused(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-dist", "uniform", "-procs", "4", "-n", "600", "-p", "4"}, &out, &errOut); code != 1 {
		t.Fatalf("exit code %d, want 1 (stdout %q)", code, out.String())
	}
	for _, want := range []string{"-procs 4", "1 patch", "-dist spheres", "-dist corners"} {
		if !strings.Contains(errOut.String(), want) {
			t.Errorf("message %q does not mention %q", errOut.String(), want)
		}
	}
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-dist", "corners", "-procs", "4", "-n", "600", "-p", "4"}, &out, &errOut); code != 0 {
		t.Fatalf("-dist corners -procs 4: exit code %d, stderr %q", code, errOut.String())
	}
	if !strings.Contains(out.String(), "P=4") {
		t.Errorf("parallel run printed %q", out.String())
	}
}
