package experiment

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"branchsim/internal/obs"
	"branchsim/internal/telemetry"
)

// confidenceArms are the self-grading predictors the confidence telemetry
// targets: tage reports (2·strength+useful)/9 from its provider entry,
// perceptron |sum|/θ from its dot product.
var confidenceArms = []string{"tage", "perceptron"}

// confidenceSweep runs the two self-grading predictors over compress/test
// with tagged-table and confidence telemetry enabled and returns the parsed
// journal plus the raw journal bytes. workers 0 attaches no replay engine:
// each arm executes the workload directly, per event.
func confidenceSweep(t *testing.T, workers int, concurrent bool) (*obs.Records, []byte) {
	t.Helper()
	var buf bytes.Buffer
	sink := obs.New(obs.WithJournal(obs.NewJournal(&buf)))
	hopts := []HarnessOption{
		WithObserver(sink),
		WithTelemetry(telemetry.Config{Interval: 50_000, TableStats: true, Confidence: true, TopK: 8}),
	}
	if workers > 0 {
		hopts = append(hopts, WithWorkers(workers))
	}
	h := NewQuickHarness(hopts...)
	defer h.Close()
	ctx := context.Background()

	runArm := func(pred string) error {
		_, err := h.Run(ctx, Arm{Workload: "compress", Input: "test", Pred: pred + ":1KB", Scheme: "none"})
		return err
	}
	if concurrent {
		var wg sync.WaitGroup
		errs := make([]error, len(confidenceArms))
		for i, pred := range confidenceArms {
			wg.Add(1)
			go func(i int, pred string) {
				defer wg.Done()
				errs[i] = runArm(pred)
			}(i, pred)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	} else {
		for _, pred := range confidenceArms {
			if err := runArm(pred); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	raw := append([]byte(nil), buf.Bytes()...)
	recs, err := obs.ReadRecords(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return recs, raw
}

// confidenceLines extracts one arm's tagged_table_stats and confidence
// record lines from a raw journal, preserving emission order.
func confidenceLines(raw []byte, predictor string) []string {
	var out []string
	marker := fmt.Sprintf("%q:%q", "predictor", predictor)
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.Contains(line, marker) {
			continue
		}
		if strings.Contains(line, `"type":"tagged_table_stats"`) ||
			strings.Contains(line, `"type":"confidence"`) {
			out = append(out, line)
		}
	}
	return out
}

// TestConfidenceGoldenByteStable extends the golden determinism contract to
// the two record types this layer adds: an arm's tagged_table_stats and
// confidence streams are byte-identical across repeated runs, across replay
// worker counts (workers=1 sequential vs workers=8 concurrent), and against
// direct execution with no replay engine, run sequentially and
// concurrently. Both predictors fall back to the scalar path when these
// samplers are live, so any byte difference means a sampler observed
// scheduling rather than the branch stream.
func TestConfidenceGoldenByteStable(t *testing.T) {
	recs1, raw1 := confidenceSweep(t, 1, false)
	_, raw2 := confidenceSweep(t, 1, false)
	_, raw8 := confidenceSweep(t, 8, true)
	_, rawDirect := confidenceSweep(t, 0, false)
	_, rawDirectConc := confidenceSweep(t, 0, true)

	// Discover the combined-predictor arm labels from the journal.
	names := map[string]string{} // base spec -> arm label
	for i := range recs1.Confidence {
		name := recs1.Confidence[i].Predictor
		for _, base := range confidenceArms {
			if strings.HasPrefix(name, base) {
				names[base] = name
			}
		}
	}
	for _, base := range confidenceArms {
		if names[base] == "" {
			t.Fatalf("no confidence records for %s arm (journal has %d)", base, len(recs1.Confidence))
		}
	}

	for _, base := range confidenceArms {
		arm := names[base]
		golden := confidenceLines(raw1, arm)
		if len(golden) == 0 {
			t.Fatalf("%s: no confidence/tagged lines", arm)
		}
		joined := strings.Join(golden, "\n")
		for label, raw := range map[string][]byte{
			"identical rerun":   raw2,
			"workers=8":         raw8,
			"direct sequential": rawDirect,
			"direct concurrent": rawDirectConc,
		} {
			if got := strings.Join(confidenceLines(raw, arm), "\n"); got != joined {
				t.Errorf("%s: record stream differs vs %s:\ngolden:\n%s\ngot:\n%s", arm, label, joined, got)
			}
		}
	}

	// Shape: tage reports its six banks (bimodal base + five tagged
	// components) every interval; perceptron reports its single weights
	// bank (magnitude/margin histograms).
	wantBanks := map[string]int{names["tage"]: 6, names["perceptron"]: 1}
	tagged := map[string]int{}
	for i := range recs1.TaggedStats {
		r := &recs1.TaggedStats[i]
		tagged[r.Predictor]++
		if want := wantBanks[r.Predictor]; len(r.Banks) != want {
			t.Errorf("%s tagged sample %d: %d banks, want %d", r.Predictor, r.Seq, len(r.Banks), want)
		}
	}
	for _, base := range confidenceArms {
		if tagged[names[base]] == 0 {
			t.Errorf("%s arm produced no tagged_table_stats records", base)
		}
	}

	// The low-confidence top-K rides the existing topk record.
	var lowK int
	for i := range recs1.TopK {
		lowK += len(recs1.TopK[i].TopLowConfidence)
	}
	if lowK == 0 {
		t.Error("no top_low_confidence entries in any topk record")
	}
}

// TestConfidenceOverheadGuard asserts the zero-cost-when-off contract for
// the confidence and tagged-table samplers at sweep granularity, mirroring
// the tracing guard: a sweep through a harness whose telemetry config is
// zero (nil collector — the state every telemetry-free caller gets) must
// not be measurably slower than one with no telemetry option at all. The
// per-branch cost of the disabled samplers is a nil check, and the batched
// fast path must stay engaged when ConfidenceSampling reports false.
func TestConfidenceOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard skipped in -short")
	}
	arm := Arm{Workload: "compress", Input: "test", Pred: "gshare:1KB", Scheme: "none"}
	drive := func(opts ...HarnessOption) func() {
		return func() {
			// A fresh harness per run: memoization would otherwise
			// collapse every later run to a cache hit.
			h := NewQuickHarness(append([]HarnessOption{WithWorkers(2)}, opts...)...)
			if _, err := h.Run(context.Background(), arm); err != nil {
				t.Fatal(err)
			}
			h.Close()
		}
	}
	ratio, bare, disabled := pairedWallRatio(drive(), drive(WithTelemetry(telemetry.Config{})))
	t.Logf("zero-telemetry/bare: %.3fx (%v vs %v per arm)", ratio, disabled, bare)
	if ratio > 1.05 {
		t.Errorf("zero-telemetry sweep is %.3fx the telemetry-free sweep (%v vs %v per arm); want <= 1.05x",
			ratio, disabled, bare)
	}
}
