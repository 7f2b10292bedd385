package experiment

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"branchsim/internal/obs"
	"branchsim/internal/telemetry"
)

// tableStatsGolden holds the table_stats and tagged_table_stats journal lines
// of TestTableStatsGoldenBytes. Delete the file and run the test once to
// rewrite it; the run that writes it fails, so a rewrite is never silent.
const tableStatsGolden = "testdata/table_stats.golden.jsonl"

// TestTableStatsGoldenBytes pins the wire bytes of every table-sample record
// to a committed golden, so a renamed JSON field, a reordered struct or a
// nil-versus-empty slice in the sample shape fails here. The other journal
// tests compare two runs of the same code and cannot see such a change.
// agree is exempt from introspection and pins the empty "tables":[] sample
// it gets through the static/dynamic wrapper.
func TestTableStatsGoldenBytes(t *testing.T) {
	var buf bytes.Buffer
	sink := obs.New(obs.WithJournal(obs.NewJournal(&buf)))
	h := NewQuickHarness(
		WithObserver(sink),
		WithTelemetry(telemetry.Config{Interval: 100_000, TableStats: true}),
	)
	defer h.Close()
	for _, pred := range []string{"bimodal", "gshare", "bimode", "2bcgskew", "tage", "perceptron", "agree"} {
		if _, err := h.Run(context.Background(), Arm{Workload: "compress", Input: "test", Pred: pred + ":1KB", Scheme: "none"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, line := range strings.SplitAfter(buf.String(), "\n") {
		if strings.HasPrefix(line, `{"type":"`+obs.RecTableStats+`"`) ||
			strings.HasPrefix(line, `{"type":"`+obs.RecTaggedTableStats+`"`) {
			got.WriteString(line)
		}
	}
	if got.Len() == 0 {
		t.Fatal("the journal holds no table samples")
	}

	want, err := os.ReadFile(tableStatsGolden)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.MkdirAll(filepath.Dir(tableStatsGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(tableStatsGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s (%d bytes); rerun to compare against it", tableStatsGolden, got.Len())
	}
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d differs from %s:\n got %s\nwant %s", i+1, tableStatsGolden, gl[i], wl[i])
		}
	}
	t.Fatalf("got %d lines, %s has %d", len(gl), tableStatsGolden, len(wl))
}
