package report

import (
	"strings"
	"testing"

	"branchsim/internal/obs"
)

func TestTopOffenders(t *testing.T) {
	recs := []obs.TopKRecord{{
		Workload: "w", Input: "test", Predictor: "gshare:8KB",
		K: 4, Sites: 100, SitesDropped: 7,
		TopMispredicted: []obs.BranchCount{
			{PC: 0x4000, Count: 50, MaxError: 3, Execs: 60, Bias: 0.6, MispRate: 0.8},
			{PC: 0x4010, Count: 20, MaxError: 0, Execs: 200, Bias: 0.9, MispRate: 0.1},
			{PC: 0x4020, Count: 10, MaxError: 0, Execs: 90, Bias: 0.95, MispRate: 0.05},
		},
	}}
	tbl := TopOffenders(recs, 2)
	var b strings.Builder
	if err := tbl.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"0x4000", "0x4010", "w/test/gshare:8KB", "80.0%", "7 executions of branches"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "0x4020") {
		t.Error("n=2 must truncate the offender list")
	}
}

func TestIntervalSummary(t *testing.T) {
	recs := []obs.IntervalRecord{
		{Workload: "w", Input: "test", Predictor: "bimodal:8KB",
			Seq: 0, Instructions: 1000, DInstructions: 1000, DBranches: 200, DMispredicts: 40},
		{Workload: "w", Input: "test", Predictor: "bimodal:8KB",
			Seq: 1, Instructions: 2000, DInstructions: 1000, DBranches: 200, DMispredicts: 10},
	}
	tbl := IntervalSummary(recs)
	var b strings.Builder
	if err := tbl.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// totals reconstructed from deltas: 50 misp over 2000 instr = 25 MISP/KI;
	// peak is interval 0 at 40 MISP/KI, sealed at instruction 1000.
	for _, want := range []string{"w/test/bimodal:8KB", "25.000", "40.000", "1000"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}
