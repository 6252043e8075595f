package harness

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestTrajectoryRoundTrip runs a tiny real sample and checks the file
// schema, append semantics and entry invariants end to end.
func TestTrajectoryRoundTrip(t *testing.T) {
	entry, err := RunTrajectoryPoint(context.Background(), TrajectoryConfig{N: 400, Iterations: 1, Label: "test"})
	if err != nil {
		t.Fatalf("RunTrajectoryPoint: %v", err)
	}
	if entry.N != 400 || entry.Kernel != "laplace" || entry.Degree != 6 || entry.Backend != "fft" {
		t.Fatalf("unexpected workload shape: %+v", entry)
	}
	if entry.GitSHA == "" || entry.Date == "" {
		t.Fatalf("missing provenance: %+v", entry)
	}
	if entry.WallMS <= 0 || entry.Flops <= 0 || entry.GrantedLanes < 1 {
		t.Fatalf("implausible sample: %+v", entry)
	}
	for _, stage := range []string{"up", "down_u", "down_v", "down_w", "down_x", "eval"} {
		if _, ok := entry.StageMS[stage]; !ok {
			t.Fatalf("entry missing stage %q: %v", stage, entry.StageMS)
		}
	}

	path := filepath.Join(t.TempDir(), "BENCH_trajectory.json")
	if err := AppendTrajectory(path, entry); err != nil {
		t.Fatalf("AppendTrajectory (fresh): %v", err)
	}
	if err := AppendTrajectory(path, entry); err != nil {
		t.Fatalf("AppendTrajectory (existing): %v", err)
	}

	f, err := LoadTrajectory(path)
	if err != nil {
		t.Fatalf("LoadTrajectory: %v", err)
	}
	if f.Schema != TrajectorySchema {
		t.Fatalf("schema = %q, want %q", f.Schema, TrajectorySchema)
	}
	if len(f.Entries) != 2 {
		t.Fatalf("entries = %d, want 2", len(f.Entries))
	}

	// The raw JSON must carry the schema marker for downstream tooling.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatalf("file is not a JSON object: %v", err)
	}
	if _, ok := top["schema"]; !ok {
		t.Fatalf("file missing top-level schema key: %s", raw)
	}
}

// TestTrajectoryRejectsForeignSchema guards against silently mixing
// incompatible formats in one file.
func TestTrajectoryRejectsForeignSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_trajectory.json")
	if err := os.WriteFile(path, []byte(`{"schema":"other/v9","entries":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTrajectory(path); err == nil {
		t.Fatal("LoadTrajectory accepted a foreign schema")
	}
	if err := AppendTrajectory(path, TrajectoryEntry{}); err == nil {
		t.Fatal("AppendTrajectory wrote into a foreign-schema file")
	}
}

// TestLoadTrajectoryMissingFile: a fresh checkout has no trajectory yet.
func TestLoadTrajectoryMissingFile(t *testing.T) {
	f, err := LoadTrajectory(filepath.Join(t.TempDir(), "nope.json"))
	if err != nil {
		t.Fatalf("missing file should not error: %v", err)
	}
	if f.Schema != TrajectorySchema || len(f.Entries) != 0 {
		t.Fatalf("unexpected empty file: %+v", f)
	}
}

// TestAppendKeepsFieldsOfOlderEntries: the committed trajectory holds a
// sample (pr10, the codec comparison) whose wire_* fields this build no
// longer declares. Reading the file must still work, and appending to it
// must carry that entry over whole.
func TestAppendKeepsFieldsOfOlderEntries(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "..", "BENCH_trajectory.json"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_trajectory.json")
	if err := os.WriteFile(path, committed, 0o644); err != nil {
		t.Fatal(err)
	}
	before, err := LoadTrajectory(path)
	if err != nil {
		t.Fatalf("LoadTrajectory on the committed file: %v", err)
	}
	if err := AppendTrajectory(path, TrajectoryEntry{GitSHA: "abc", Label: "appended", N: 7}); err != nil {
		t.Fatal(err)
	}
	after, err := LoadTrajectory(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Entries) != len(before.Entries)+1 || after.Entries[len(before.Entries)].Label != "appended" {
		t.Fatalf("entries after append: %+v", after.Entries)
	}
	var raw struct {
		Entries []map[string]json.RawMessage `json:"entries"`
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, e := range raw.Entries {
		if string(e["label"]) != `"pr10"` {
			continue
		}
		if string(e["wire_json_bytes"]) != "39540303" || string(e["wire_frame_codec_ms"]) != "12.627892" {
			t.Fatalf("pr10 entry lost its codec figures on append: %v", e)
		}
		return
	}
	t.Fatal("pr10 entry dropped on append")
}
