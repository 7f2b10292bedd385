package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"branchsim/internal/obs"
)

func writeJournal(t *testing.T, recs ...obs.ArmRecord) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := obs.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := j.Record(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSummarizeJournal(t *testing.T) {
	path := writeJournal(t,
		obs.ArmRecord{
			Time: time.Now(), Kind: "run", Key: "r|compress|...",
			Workload: "compress", Input: "train", Predictor: "gshare:8KB",
			Source: obs.SourceComputed, Events: 1000, WallNanos: int64(50 * time.Millisecond),
			EventsPerSec: 2e6,
		},
		obs.ArmRecord{
			Time: time.Now(), Kind: "profile", Key: "p|compress|...",
			Workload: "compress", Input: "train",
			Source: obs.SourceCheckpoint, Events: 1000, WallNanos: int64(time.Millisecond),
		},
		obs.ArmRecord{
			Time: time.Now(), Kind: "run", Key: "r|gcc|...",
			Source: obs.SourceComputed, WallNanos: int64(time.Millisecond),
			Error: "boom",
		},
	)
	for _, quiet := range []bool{false, true} {
		if err := run(path, quiet, 2); err != nil {
			t.Fatalf("run(quiet=%v): %v", quiet, err)
		}
	}
}

func TestEmptyJournal(t *testing.T) {
	if err := run(writeJournal(t), false, 3); err != nil {
		t.Fatal(err)
	}
}

func TestMalformedJournalFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(path, []byte("{\"kind\":\"run\"}\nnot json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(path, true, 0); err == nil {
		t.Fatal("malformed journal accepted")
	}
	if err := run(filepath.Join(t.TempDir(), "missing.jsonl"), true, 0); err == nil {
		t.Fatal("missing journal accepted")
	}
}

func TestTelemetryJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tel.jsonl")
	j, err := obs.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := []obs.JournalRecord{
		&obs.ArmRecord{Time: time.Now(), Kind: "run", Key: "r|compress|...",
			Source: obs.SourceComputed, Events: 500, WallNanos: int64(time.Millisecond)},
		&obs.IntervalRecord{Workload: "compress", Input: "test", Predictor: "gshare:1KB",
			Seq: 0, Instructions: 1000, DInstructions: 1000, DBranches: 200, DMispredicts: 40},
		&obs.TopKRecord{Workload: "compress", Input: "test", Predictor: "gshare:1KB",
			K: 2, Sites: 10,
			TopMispredicted: []obs.BranchCount{{PC: 0x40, Count: 9, Execs: 10, Bias: 0.5, MispRate: 0.9}}},
	}
	for _, r := range recs {
		if err := j.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	for _, top := range []int{2, 0} {
		if err := run(path, false, top); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFollowJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := obs.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record(&obs.ArmRecord{Time: time.Now(), Kind: "run", Key: "r|a",
		Source: obs.SourceComputed, Events: 10, WallNanos: int64(time.Millisecond)}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- runFollow(ctx, path, time.Millisecond, false, 2) }()

	// Append while the tail runs, including a failure and telemetry.
	if err := j.Record(&obs.ArmRecord{Time: time.Now(), Kind: "run", Key: "r|b",
		Source: obs.SourceComputed, WallNanos: int64(time.Millisecond), Error: "boom"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Write(&obs.IntervalRecord{Workload: "w", Input: "i", Predictor: "gshare:10",
		Seq: 0, Instructions: 1000, DInstructions: 1000, DBranches: 100, DMispredicts: 7}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the tailer drain the appends
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("runFollow: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("runFollow did not stop on cancel")
	}
}

func TestFollowMalformedJournalFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(path, []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := runFollow(ctx, path, time.Millisecond, true, 0); err == nil || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("runFollow on malformed journal: %v, want parse error", err)
	}
}

func TestUnknownSchemaVersionFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "future.jsonl")
	if err := os.WriteFile(path, []byte(`{"type":"interval","v":99}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(path, true, 0)
	if err == nil {
		t.Fatal("future schema version accepted")
	}
	var se *obs.SchemaError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *obs.SchemaError", err)
	}
}
