package obs

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestReadRecordsMixed(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	if err := j.Write(&ArmRecord{Kind: "run", Key: "k1"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Write(&IntervalRecord{
		Workload: "w", Input: "i", Predictor: "p",
		Seq: 0, Instructions: 100_000,
		DInstructions: 100_000, DBranches: 10_000, DMispredicts: 500,
	}); err != nil {
		t.Fatal(err)
	}
	if err := j.Write(&TableStatsRecord{
		Workload: "w", Input: "i", Predictor: "p", Seq: 0, Instructions: 100_000,
		Tables: []TableStat{{Name: "pht", Entries: 4096, Occupied: 77, Counters: [4]uint64{1, 2, 3, 4090}}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := j.Write(&TopKRecord{
		Workload: "w", Input: "i", Predictor: "p", K: 4, Sites: 12,
		TopMispredicted: []BranchCount{{PC: 0x40, Count: 9}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := ReadRecords(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs.Arms) != 1 || len(recs.Intervals) != 1 || len(recs.TableStats) != 1 || len(recs.TopK) != 1 {
		t.Fatalf("got %d/%d/%d/%d arm/interval/table/topk records, want 1 each",
			len(recs.Arms), len(recs.Intervals), len(recs.TableStats), len(recs.TopK))
	}
	if recs.Len() != 4 {
		t.Fatalf("Len = %d, want 4", recs.Len())
	}
	if got := recs.Arms[0].Type; got != RecArm {
		t.Errorf("arm record type = %q, want %q", got, RecArm)
	}
	if got := recs.Intervals[0].V; got != SchemaV1 {
		t.Errorf("interval record v = %d, want %d", got, SchemaV1)
	}
	if got := recs.Intervals[0].MISPKI(); got != 5.0 {
		t.Errorf("interval MISPKI = %v, want 5", got)
	}
	if got := recs.TableStats[0].Tables[0].Name; got != "pht" {
		t.Errorf("table stat name = %q, want pht", got)
	}
	if got := recs.TopK[0].TopMispredicted[0].PC; got != 0x40 {
		t.Errorf("topk pc = %#x, want 0x40", got)
	}
}

// Journals written before the telemetry schema have no type/v envelope; they
// must still read as arm records. The line also carries "retries", a field
// old harnesses wrote and ArmRecord no longer has: unknown fields are ignored.
func TestReadRecordsLegacyArmLines(t *testing.T) {
	legacy := `{"time":"2026-01-02T03:04:05Z","kind":"run","key":"k","source":"computed","retries":2,"wall_ns":12}` + "\n"
	recs, err := ReadRecords(strings.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs.Arms) != 1 {
		t.Fatalf("got %d arm records, want 1", len(recs.Arms))
	}
	if recs.Arms[0].Key != "k" {
		t.Errorf("key = %q, want k", recs.Arms[0].Key)
	}
	// And ReadJournal keeps its old contract over mixed journals.
	arms, err := ReadJournal(strings.NewReader(legacy + `{"type":"interval","v":1,"workload":"w"}` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(arms) != 1 {
		t.Fatalf("ReadJournal got %d arms, want 1", len(arms))
	}
}

func TestReadRecordsRejectsUnknownSchema(t *testing.T) {
	cases := []struct {
		name, line  string
		wantType    string
		wantVersion int
	}{
		{"future version", `{"type":"interval","v":99}`, "interval", 99},
		{"unknown type", `{"type":"flamegraph","v":1}`, "flamegraph", 1},
		{"typed but unversioned", `{"type":"interval"}`, "interval", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadRecords(strings.NewReader("{}\n" + tc.line + "\n"))
			var se *SchemaError
			if !errors.As(err, &se) {
				t.Fatalf("err = %v, want *SchemaError", err)
			}
			if se.Line != 2 || se.Type != tc.wantType || se.Version != tc.wantVersion {
				t.Errorf("SchemaError = %+v, want {Line:2 Type:%q Version:%d}", se, tc.wantType, tc.wantVersion)
			}
			if msg := se.Error(); !strings.Contains(msg, "line 2") || !strings.Contains(msg, tc.wantType) {
				t.Errorf("error message %q does not name the line and type", msg)
			}
		})
	}
}

func TestJournalSync(t *testing.T) {
	// Writer-backed journal: Sync flushes.
	var buf bytes.Buffer
	j := NewJournal(&buf)
	if err := j.Write(&IntervalRecord{Workload: "w"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"interval"`)) {
		t.Fatal("Sync did not flush the record")
	}
	// Nil journal: everything no-ops.
	var nilJ *Journal
	if err := nilJ.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := nilJ.Write(&IntervalRecord{}); err != nil {
		t.Fatal(err)
	}
}

func TestObserverEmit(t *testing.T) {
	var buf bytes.Buffer
	o := New(WithJournal(NewJournal(&buf)))
	o.Emit(&IntervalRecord{Workload: "w", Input: "i", Predictor: "p"})
	if err := o.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadRecords(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs.Intervals) != 1 {
		t.Fatalf("got %d intervals, want 1", len(recs.Intervals))
	}
	// Nil observer and journal-less observer are no-ops.
	var nilO *Observer
	nilO.Emit(&IntervalRecord{})
	if err := nilO.Flush(); err != nil {
		t.Fatal(err)
	}
	New().Emit(&IntervalRecord{})
}

// TestReadRecordsTornTail pins crash tolerance: a final line truncated
// mid-record by a killed writer (no trailing newline) is skipped, every
// complete record before it is returned, and the tolerance does NOT extend
// to malformed lines that are complete — those still fail the read.
func TestReadRecordsTornTail(t *testing.T) {
	whole := `{"type":"arm","v":1,"kind":"run","key":"k1","source":"computed","time":"2026-08-05T00:00:00Z","wall_ns":1}` + "\n"

	// Truncate a second record at every byte short of its newline: each
	// torn journal must read back exactly the one complete record.
	second := `{"type":"arm","v":1,"kind":"run","key":"k2","source":"computed","time":"2026-08-05T00:00:00Z","wall_ns":2}`
	for cut := 1; cut < len(second); cut++ {
		recs, err := ReadRecords(strings.NewReader(whole + second[:cut]))
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(recs.Arms) != 1 || recs.Arms[0].Key != "k1" {
			t.Fatalf("cut %d: got %d arms, want the 1 complete record", cut, len(recs.Arms))
		}
	}

	// The full second line (with newline) reads back both.
	recs, err := ReadRecords(strings.NewReader(whole + second + "\n"))
	if err != nil || len(recs.Arms) != 2 {
		t.Fatalf("whole journal: %d arms, err %v", len(recs.Arms), err)
	}

	// A torn line that is the ONLY line still yields an empty, valid read.
	recs, err = ReadRecords(strings.NewReader(second[:20]))
	if err != nil || recs.Len() != 0 {
		t.Fatalf("only-torn journal: len %d, err %v", recs.Len(), err)
	}

	// A malformed line terminated by a newline is corruption, not a torn
	// tail — it still fails with its line number.
	if _, err := ReadRecords(strings.NewReader(whole + "not json\n")); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("complete malformed line: err = %v, want line-2 failure", err)
	}
	// Even mid-file: a torn-looking fragment followed by more records means
	// real corruption, and must not be silently skipped.
	if _, err := ReadRecords(strings.NewReader(second[:20] + "\n" + whole)); err == nil {
		t.Fatal("mid-file truncated line skipped silently")
	}
}
