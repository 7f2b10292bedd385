package experiment

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"branchsim/internal/faults"
	"branchsim/internal/predictor"
	"branchsim/internal/workload"
)

// TestPanicFailsOnlyItsArm is acceptance criterion (a): an injected
// predictor panic in one arm must fail only that arm while a concurrent
// keep-going sweep completes the rest.
func TestPanicFailsOnlyItsArm(t *testing.T) {
	const poisoned = "gshare:2KB"
	h := testHarness(WithPredictorFactory(func(spec string) (predictor.Predictor, error) {
		p, err := predictor.New(spec)
		if err != nil || spec != poisoned {
			return p, err
		}
		return &faults.Predictor{
			Inner: p,
			Plan:  faults.NewPlan(faults.Fault{At: 5000, Kind: faults.KindPanic, Msg: "table corrupted"}),
		}, nil
	}))

	arms := []Arm{
		{Workload: "compress", Pred: "gshare:1KB", Scheme: "none"},
		{Workload: "compress", Pred: poisoned, Scheme: "none"},
		{Workload: "compress", Pred: "bimodal:1KB", Scheme: "none"},
		{Workload: "ijpeg", Pred: "gshare:1KB", Scheme: "none"},
		{Workload: "ijpeg", Pred: "bimodal:1KB", Scheme: "none"},
	}
	// Keep-going semantics: run every arm concurrently, collect errors
	// instead of stopping at the first.
	errs := make([]error, len(arms))
	var wg sync.WaitGroup
	for i, a := range arms {
		wg.Add(1)
		go func(i int, a Arm) {
			defer wg.Done()
			_, errs[i] = h.Run(context.Background(), a)
		}(i, a)
	}
	wg.Wait()

	for i, err := range errs {
		if arms[i].Pred == poisoned {
			var ae *ArmError
			if !errors.As(err, &ae) {
				t.Fatalf("poisoned arm error = %v, want *ArmError", err)
			}
			if ae.Phase != "run" {
				t.Errorf("poisoned arm phase = %q, want run", ae.Phase)
			}
			if len(ae.Stack()) == 0 {
				t.Error("poisoned arm has no captured stack")
			} else if !strings.Contains(string(ae.Stack()), "Predict") {
				t.Errorf("stack does not name the predictor:\n%s", ae.Stack())
			}
			var pe *workload.PanicError
			if !errors.As(err, &pe) || pe.Value != "table corrupted" {
				t.Errorf("panic value not preserved: %v", err)
			}
			continue
		}
		if err != nil {
			t.Errorf("healthy arm %+v failed: %v", arms[i], err)
		}
	}
}

// TestCheckpointResumeRecomputesNothing is acceptance criterion (b): a
// sweep killed after N arms resumes from its checkpoint re-running zero
// completed arms, verified by the harness work counters.
func TestCheckpointResumeRecomputesNothing(t *testing.T) {
	dir := t.TempDir()
	arms := []Arm{
		{Workload: "compress", Pred: "gshare:1KB", Scheme: "none"},
		{Workload: "compress", Pred: "gshare:1KB", Scheme: "static95"},
		{Workload: "ijpeg", Pred: "bimodal:1KB", Scheme: "none"},
		{Workload: "ijpeg", Pred: "gshare:1KB", Scheme: "staticacc"},
	}
	sweep := func(h *Harness, arms []Arm) {
		t.Helper()
		for _, a := range arms {
			if _, err := h.Run(context.Background(), a); err != nil {
				t.Fatalf("%+v: %v", a, err)
			}
		}
	}
	open := func() *Harness {
		t.Helper()
		ck, err := OpenCheckpoint(dir)
		if err != nil {
			t.Fatal(err)
		}
		return testHarness(WithCheckpoint(ck))
	}

	// "Kill" the sweep after two arms: a first harness completes a prefix.
	h1 := open()
	sweep(h1, arms[:2])
	if s := h1.Stats(); s.RunsComputed == 0 {
		t.Fatalf("first harness computed nothing: %+v", s)
	}

	// A fresh harness (fresh process, in effect) finishes the sweep. The
	// two journaled arms must come from the checkpoint, the two new arms
	// from simulation.
	h2 := open()
	sweep(h2, arms)
	if s := h2.Stats(); s.RunsComputed != 2 {
		t.Fatalf("resumed sweep recomputed %d runs, want 2 (stats %+v)", s.RunsComputed, s)
	}

	// A third pass over the finished sweep computes nothing at all.
	h3 := open()
	sweep(h3, arms)
	s := h3.Stats()
	if s.RunsComputed != 0 || s.ProfilesComputed != 0 {
		t.Fatalf("clean resume recomputed work: %+v", s)
	}
	if s.CheckpointHits == 0 {
		t.Fatalf("clean resume hit no checkpoints: %+v", s)
	}
}

// TestCanceledContextStopsArm covers the cooperative-cancellation path: a
// context canceled mid-simulation surfaces context.Canceled promptly, and a
// pre-canceled context never starts the arm.
func TestCanceledContextStopsArm(t *testing.T) {
	h := testHarness()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := h.Run(ctx, Arm{Workload: "compress", Pred: "gshare:1KB", Scheme: "none"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled run err = %v", err)
	}

	// Mid-run: a predictor that cancels the sweep's context partway
	// through simulation. The event loop's periodic check must stop the
	// run and report the context error, not a panic or a hang.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	calls := 0
	h2 := testHarness(WithPredictorFactory(func(spec string) (predictor.Predictor, error) {
		p, err := predictor.New(spec)
		if err != nil {
			return nil, err
		}
		return cancelingPredictor{Predictor: p, after: 1000, cancel: cancel2, calls: &calls}, nil
	}))
	_, err := h2.Run(ctx2, Arm{Workload: "gcc", Pred: "gshare:1KB", Scheme: "none"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel err = %v", err)
	}
	// gcc/test has >1M branches; a run that honored the cancellation
	// stopped well short of that.
	if calls > 200000 {
		t.Fatalf("run kept simulating after cancel: %d predicts", calls)
	}
}

type cancelingPredictor struct {
	predictor.Predictor
	after  int
	cancel context.CancelFunc
	calls  *int
}

func (p cancelingPredictor) Predict(pc uint64) bool {
	*p.calls++
	if *p.calls == p.after {
		p.cancel()
	}
	return p.Predictor.Predict(pc)
}

// TestArmTimeoutNamesTheSlowArm: a stalled arm exceeds its deadline and the
// resulting error wraps context.DeadlineExceeded inside an ArmError naming
// the arm.
func TestArmTimeoutNamesTheSlowArm(t *testing.T) {
	h := testHarness(
		WithArmTimeout(20*time.Millisecond),
		WithPredictorFactory(func(spec string) (predictor.Predictor, error) {
			p, err := predictor.New(spec)
			if err != nil {
				return nil, err
			}
			// Stall long enough to blow the 20ms deadline before the
			// simulation's next cooperative check.
			return &faults.Predictor{
				Inner: p,
				Plan:  faults.NewPlan(faults.Fault{At: 1, Kind: faults.KindDelay, Delay: 50 * time.Millisecond}),
			}, nil
		}))
	_, err := h.Run(context.Background(), Arm{Workload: "compress", Pred: "gshare:1KB", Scheme: "none"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	var ae *ArmError
	if !errors.As(err, &ae) || ae.Phase != "run" {
		t.Fatalf("timeout not attributed to its arm: %v", err)
	}
}
