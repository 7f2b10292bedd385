package experiment

import (
	"context"
	"strings"
	"testing"

	"branchsim/internal/core"
	"branchsim/internal/workload"
)

// testHarness measures on the tiny test inputs so the whole experiment
// machinery runs in seconds.
func testHarness(opts ...HarnessOption) *Harness {
	return (&Harness{RefInput: workload.InputTest, TrainInput: workload.InputTest}).apply(opts)
}

// crossHarness uses two different small inputs so cross-training paths are
// meaningful.
func crossHarness(opts ...HarnessOption) *Harness {
	return (&Harness{RefInput: workload.InputTrain, TrainInput: workload.InputTest}).apply(opts)
}

func TestAllExperimentsRegisteredAndOrdered(t *testing.T) {
	all := All()
	if len(all) != len(paperOrder) {
		ids := []string{}
		for _, e := range all {
			ids = append(ids, e.ID)
		}
		t.Fatalf("registered %v, paperOrder has %d entries", ids, len(paperOrder))
	}
	for i, e := range all {
		if e.ID != paperOrder[i] {
			t.Fatalf("experiment %d is %q, want %q", i, e.ID, paperOrder[i])
		}
		if e.Title == "" || e.Paper == "" || e.Description == "" || e.Run == nil {
			t.Errorf("%s: incomplete metadata", e.ID)
		}
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("table3")
	if err != nil || e.ID != "table3" {
		t.Fatalf("ByID(table3) = %v, %v", e.ID, err)
	}
	if _, err := ByID("nope"); err == nil || !strings.Contains(err.Error(), "table3") {
		t.Fatalf("unknown id error should list ids: %v", err)
	}
}

func TestHarnessCachesRuns(t *testing.T) {
	h := testHarness()
	a := Arm{Workload: "compress", Pred: "gshare:1KB", Scheme: "none"}
	m1, err := h.Run(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if h.runs.size() != 1 {
		t.Fatalf("run not cached")
	}
	m2, err := h.Run(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Fatalf("cached run differs")
	}
	if h.runs.size() != 1 {
		t.Fatalf("cache grew on a repeat run")
	}
}

func TestHarnessProfileCaching(t *testing.T) {
	h := testHarness()
	db1, err := h.Profile(context.Background(), "compress", workload.InputTest, "")
	if err != nil {
		t.Fatal(err)
	}
	db2, err := h.Profile(context.Background(), "compress", workload.InputTest, "")
	if err != nil {
		t.Fatal(err)
	}
	if db1 != db2 {
		t.Fatalf("profile not cached")
	}
}

func TestHintsNoneIsNil(t *testing.T) {
	h := testHarness()
	for _, scheme := range []string{"", "none"} {
		hd, err := h.Hints(context.Background(), Arm{Workload: "compress", Pred: "gshare:1KB", Scheme: scheme})
		if err != nil || hd != nil {
			t.Fatalf("scheme %q: hints = %v, err %v", scheme, hd, err)
		}
	}
}

func TestHintsSelectAndCache(t *testing.T) {
	h := testHarness()
	a := Arm{Workload: "compress", Pred: "gshare:1KB", Scheme: "staticacc"}
	hd, err := h.Hints(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if hd.Len() == 0 {
		t.Fatalf("staticacc selected nothing on compress")
	}
	hd2, err := h.Hints(context.Background(), a)
	if err != nil || hd2 != hd {
		t.Fatalf("hints not cached")
	}
}

func TestCrossTrainedHintsUseTrainProfile(t *testing.T) {
	h := crossHarness()
	self := Arm{Workload: "compress", Pred: "gshare:1KB", Scheme: "static95"}
	cross := self
	cross.ProfileInput = h.TrainInput
	hs, err := h.Hints(context.Background(), self)
	if err != nil {
		t.Fatal(err)
	}
	hc, err := h.Hints(context.Background(), cross)
	if err != nil {
		t.Fatal(err)
	}
	if hs.Profile == hc.Profile {
		t.Fatalf("cross-trained hints drew from the measurement profile (%q)", hs.Profile)
	}
}

func TestFilterDriftShrinksHintSet(t *testing.T) {
	h := crossHarness()
	naive := Arm{Workload: "m88ksim", Pred: "gshare:1KB", Scheme: "static95", ProfileInput: h.TrainInput}
	filtered := naive
	filtered.FilterDrift = 0.05
	hn, err := h.Hints(context.Background(), naive)
	if err != nil {
		t.Fatal(err)
	}
	hf, err := h.Hints(context.Background(), filtered)
	if err != nil {
		t.Fatal(err)
	}
	if hf.Len() > hn.Len() {
		t.Fatalf("drift filter grew the hint set: %d -> %d", hn.Len(), hf.Len())
	}
}

func TestImprovementSign(t *testing.T) {
	h := testHarness()
	// self-trained staticacc can only help on the profiled input for a
	// given branch set; allow small interaction noise but not a blowup
	imp, err := h.Improvement(context.Background(), Arm{Workload: "gcc", Pred: "gshare:1KB", Scheme: "staticacc"})
	if err != nil {
		t.Fatal(err)
	}
	if imp < -0.05 {
		t.Fatalf("self-trained staticacc degraded gcc by %.1f%%", -100*imp)
	}
}

func TestCombinedArmRespectsShift(t *testing.T) {
	h := testHarness()
	a := Arm{Workload: "gcc", Pred: "ghist:1KB", Scheme: "static95"}
	b := a
	b.Shift = core.ShiftOutcome
	ma, err := h.Run(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := h.Run(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	if ma.Mispredicts == mb.Mispredicts {
		t.Fatalf("shift policy had no effect at all (%d mispredicts)", ma.Mispredicts)
	}
}

func TestEveryExperimentRunsOnTestInputs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	h := crossHarness()
	h.RefInput = workload.InputTest // keep even cross arms tiny: both inputs "test"
	h.TrainInput = workload.InputTest
	for _, e := range All() {
		res, err := e.Run(context.Background(), h)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if len(res.Tables) == 0 {
			t.Fatalf("%s produced no tables", e.ID)
		}
		for _, tb := range res.Tables {
			if len(tb.Rows) == 0 {
				t.Fatalf("%s produced an empty table", e.ID)
			}
			var sb strings.Builder
			if err := tb.Render(&sb); err != nil {
				t.Fatalf("%s: render: %v", e.ID, err)
			}
			if err := tb.CSV(&sb); err != nil {
				t.Fatalf("%s: csv: %v", e.ID, err)
			}
		}
	}
}

func TestRunErrorsPropagate(t *testing.T) {
	h := testHarness()
	if _, err := h.Run(context.Background(), Arm{Workload: "nosuch", Pred: "gshare:1KB", Scheme: "none"}); err == nil {
		t.Fatalf("unknown workload accepted")
	}
	if _, err := h.Run(context.Background(), Arm{Workload: "compress", Pred: "nosuch:1KB", Scheme: "none"}); err == nil {
		t.Fatalf("unknown predictor accepted")
	}
	if _, err := h.Run(context.Background(), Arm{Workload: "compress", Pred: "gshare:1KB", Scheme: "nosuch"}); err == nil {
		t.Fatalf("unknown scheme accepted")
	}
}
