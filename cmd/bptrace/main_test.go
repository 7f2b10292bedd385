package main

import (
	"context"
	"path/filepath"
	"testing"

	"branchsim"
	"branchsim/internal/trace"
)

// TestRecordStatReplay records compress/test and checks that the file
// replays to exactly what a direct simulation of the workload sees: the
// same stream totals, and the same gshare:1KB metrics with collisions.
func TestRecordStatReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.btrc")

	if err := record(context.Background(), []string{"-workload", "compress", "-input", "test", "-o", path}); err != nil {
		t.Fatal(err)
	}
	if err := stat([]string{path}); err != nil {
		t.Fatal(err)
	}
	if err := replayTrace([]string{"-predictor", "gshare:1KB", path}); err != nil {
		t.Fatal(err)
	}

	want, err := branchsim.Simulate(context.Background(),
		branchsim.Workload("compress"), branchsim.Input("test"),
		branchsim.WithPredictorSpec("gshare:1KB"), branchsim.WithCollisions())
	if err != nil {
		t.Fatal(err)
	}
	counts, err := replayFile(path, trace.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if counts != want.Counts {
		t.Errorf("recorded file replays to %+v, direct run saw %+v", counts, want.Counts)
	}
	got, err := simulateFile(path, "gshare:1KB")
	if err != nil {
		t.Fatal(err)
	}
	got.Workload, got.Input = want.Workload, want.Input // the file run is labelled by path
	if d := want.Diff(got); d != "" {
		t.Errorf("replayed metrics diverge from direct Simulate: %s", d)
	}
}

func TestRecordRequiresOutput(t *testing.T) {
	if err := record(context.Background(), []string{"-workload", "compress", "-input", "test"}); err == nil {
		t.Fatal("missing -o accepted")
	}
}

func TestStatRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad")
	if err := record(context.Background(), []string{"-workload", "compress", "-input", "test", "-o", bad + ".ok"}); err != nil {
		t.Fatal(err)
	}
	if err := stat([]string{filepath.Join(dir, "missing")}); err == nil {
		t.Fatal("missing file accepted")
	}
	if err := stat([]string{}); err == nil {
		t.Fatal("no-arg stat accepted")
	}
}

func TestReplayBadPredictor(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.btrc")
	if err := record(context.Background(), []string{"-workload", "ijpeg", "-input", "test", "-o", path}); err != nil {
		t.Fatal(err)
	}
	if err := replayTrace([]string{"-predictor", "nosuch:1KB", path}); err == nil {
		t.Fatal("unknown predictor accepted")
	}
}
