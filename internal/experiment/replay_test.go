package experiment

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"branchsim/internal/obs"
	"branchsim/internal/replay"
	"branchsim/internal/sim"
	"branchsim/internal/trace"
	"branchsim/internal/workload"
)

// countingProg wraps a workload so the test can count how many times it
// actually executes.
type countingProg struct {
	workload.Program
	execs *atomic.Int64
}

func (p countingProg) Run(ctx context.Context, input string, rec trace.Recorder) error {
	p.execs.Add(1)
	return p.Program.Run(ctx, input, rec)
}

// TestEquivalenceHarnessReplay runs the same grid of arms through a plain
// harness and through one with a replay engine attached — concurrently, so
// arms actually share captures — and demands bit-identical metrics, while
// each (workload, input) pair executes exactly once. Static schemes ride
// along so profile collection goes through the shared capture too.
func TestEquivalenceHarnessReplay(t *testing.T) {
	ctx := context.Background()
	var arms []Arm
	for _, wl := range []string{"compress", "m88ksim"} {
		for _, pred := range []string{"gshare:1KB", "2bcgskew:1KB"} {
			for _, scheme := range []string{"none", "static95"} {
				arms = append(arms, Arm{Workload: wl, Pred: pred, Scheme: scheme})
			}
		}
	}

	direct := testHarness()
	want := make([]sim.Metrics, len(arms))
	for i, a := range arms {
		m, err := direct.Run(ctx, a)
		if err != nil {
			t.Fatalf("direct %v: %v", a, err)
		}
		want[i] = m
	}

	var execs atomic.Int64
	h := testHarness()
	h.Replay = replay.New(4, 0, "")
	defer h.Replay.Close()
	h.Lookup = func(name string) (workload.Program, error) {
		p, err := workload.Get(name)
		if err != nil {
			return nil, err
		}
		return countingProg{Program: p, execs: &execs}, nil
	}

	got := make([]sim.Metrics, len(arms))
	errs := make([]error, len(arms))
	var wg sync.WaitGroup
	for i, a := range arms {
		wg.Add(1)
		go func(i int, a Arm) {
			defer wg.Done()
			got[i], errs[i] = h.Run(ctx, a)
		}(i, a)
	}
	wg.Wait()

	for i, a := range arms {
		if errs[i] != nil {
			t.Errorf("replay %v: %v", a, errs[i])
			continue
		}
		if d := want[i].Diff(got[i]); d != "" {
			t.Errorf("%v: replay harness metrics diverge: %s", a, d)
		}
	}
	// Two workloads on one input each: two executions total — every
	// measurement run and every static95 bias profile fed off a capture.
	if n := execs.Load(); n != 2 {
		t.Errorf("workloads executed %d times, want 2 (one capture per workload/input)", n)
	}
}

// TestHarnessReplayImprovement checks a derived metric (the paper's
// improvement ratio) is unchanged by the engine: identical inputs to the
// ratio imply identical output, so divergence here means a run diverged.
func TestHarnessReplayImprovement(t *testing.T) {
	ctx := context.Background()
	a := Arm{Workload: "compress", Pred: "gshare:1KB", Scheme: "static95"}

	direct := testHarness()
	want, err := direct.Improvement(ctx, a)
	if err != nil {
		t.Fatal(err)
	}

	h := testHarness()
	h.Replay = replay.New(2, 0, "")
	defer h.Replay.Close()
	got, err := h.Improvement(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	if want != got {
		t.Errorf("improvement with replay = %v, direct = %v", got, want)
	}
}

// TestBatchReplayNeverDecodesCachedChunks pins the decode-once property of
// batch-mode replay: every capture whose recorder consumes blocks — the
// bias-only profiler of a static95 arm included — fills the decoded-block
// cache, so the arms replaying it afterwards (plain, Static_Acc with its
// accuracy profile, a predictor without a native kernel) are fed from the
// cache and no chunk is ever decoded from its encoded bytes.
func TestBatchReplayNeverDecodesCachedChunks(t *testing.T) {
	sink := obs.New()
	h := NewQuickHarness(WithObserver(sink), WithWorkers(2))
	defer h.Close()
	ctx := context.Background()
	for _, a := range []Arm{
		{Workload: "compress", Pred: "gshare:8KB", Scheme: "static95"}, // captures in its bias-only profile
		{Workload: "compress", Pred: "gshare:8KB", Scheme: "none"},
		{Workload: "compress", Pred: "gshare:8KB", Scheme: "staticacc"},
		{Workload: "compress", Pred: "tage:8KB", Scheme: "none"},
	} {
		if _, err := h.Run(ctx, a); err != nil {
			t.Fatalf("%v: %v", a, err)
		}
	}
	if n := sink.Counter(obs.MReplayCaptures).Value(); n != 1 {
		t.Fatalf("%d captures, want 1", n)
	}
	if sink.Counter(obs.MReplayChunksReplayed).Value() == 0 {
		t.Fatal("no chunk was replayed")
	}
	if n := sink.Histogram(obs.MReplayChunkDecode).Count(); n != 0 {
		t.Errorf("replays decoded %d chunks; want every chunk served from the decoded cache", n)
	}
}

// TestBiasProfileBlockPathMatchesDirect checks the bias-only profiler's
// block path: a profile collected while capturing the stream and one
// replayed from the decoded cache both equal the profile of a direct
// execution, per-branch counts and instruction total alike.
func TestBiasProfileBlockPathMatchesDirect(t *testing.T) {
	ctx := context.Background()
	want, err := testHarness().Profile(ctx, "compress", workload.InputTest, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, replayed := range []bool{false, true} {
		h := testHarness()
		h.Replay = replay.New(2, 0, "")
		if replayed {
			if _, err := h.Run(ctx, Arm{Workload: "compress", Pred: "gshare:1KB", Scheme: "none"}); err != nil {
				t.Fatal(err)
			}
		}
		got, err := h.Profile(ctx, "compress", workload.InputTest, "")
		h.Replay.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("replayed=%v: bias profile differs from direct execution (instructions %d vs %d, %d vs %d branches)",
				replayed, got.Instructions, want.Instructions, got.Len(), want.Len())
		}
	}
}
