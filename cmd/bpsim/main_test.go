package main

import (
	"context"
	"path/filepath"
	"testing"

	"branchsim"
)

var noTel = branchsim.TelemetryConfig{}

func TestRunPlain(t *testing.T) {
	if err := run("compress", "test", "gshare:1KB", "", "", "", "", false, true, noTel); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithHints(t *testing.T) {
	dir := t.TempDir()
	hintsPath := filepath.Join(dir, "h.json")
	db := branchsim.NewProfileDB("compress", "test")
	if _, err := branchsim.Simulate(context.Background(),
		branchsim.Workload("compress"),
		branchsim.Input("test"),
		branchsim.WithProfileInto(db),
	); err != nil {
		t.Fatal(err)
	}
	hints, err := branchsim.SelectHints(branchsim.Static95{}, db)
	if err != nil {
		t.Fatal(err)
	}
	if err := hints.SaveFile(hintsPath); err != nil {
		t.Fatal(err)
	}

	if err := run("compress", "test", "gshare:1KB", hintsPath, "", "", "", true, true, noTel); err != nil {
		t.Fatal(err)
	}
	// hints for the wrong workload must be rejected
	if err := run("ijpeg", "test", "gshare:1KB", hintsPath, "", "", "", false, false, noTel); err == nil {
		t.Fatal("wrong-workload hints accepted")
	}
}

func TestRunWithTelemetryJournal(t *testing.T) {
	journalPath := filepath.Join(t.TempDir(), "run.jsonl")
	tel := branchsim.TelemetryConfig{Interval: 50_000, TableStats: true, TopK: 8}
	if err := run("compress", "test", "gshare:1KB", "", "", "", journalPath, false, true, tel); err != nil {
		t.Fatal(err)
	}
	recs, err := branchsim.ReadJournalRecordsFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs.Arms) != 1 {
		t.Fatalf("%d arm records, want 1", len(recs.Arms))
	}
	if len(recs.Intervals) == 0 || len(recs.TableStats) == 0 || len(recs.TopK) != 1 {
		t.Fatalf("telemetry records missing: %d intervals, %d table samples, %d topk",
			len(recs.Intervals), len(recs.TableStats), len(recs.TopK))
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("compress", "test", "nosuch", "", "", "", "", false, false, noTel); err == nil {
		t.Fatal("bad predictor accepted")
	}
	if err := run("nosuch", "test", "gshare:1KB", "", "", "", "", false, false, noTel); err == nil {
		t.Fatal("bad workload accepted")
	}
	if err := run("compress", "test", "gshare:1KB", "/nonexistent/h.json", "", "", "", false, false, noTel); err == nil {
		t.Fatal("missing hints file accepted")
	}
}
