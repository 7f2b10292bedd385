package replay_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"branchsim/internal/experiment"
	"branchsim/internal/faults"
	"branchsim/internal/fsx"
	"branchsim/internal/obs"
	"branchsim/internal/predictor"
	"branchsim/internal/replay"
	"branchsim/internal/sim"
	"branchsim/internal/trace"
	"branchsim/internal/workload"
)

// equivalencePredictors are the schemes the differential tests cover: the
// paper's five plus the modern successors, which exercise the widest range
// of predictor state (tagged tables, weights) against replayed streams.
func equivalencePredictors() []string {
	specs := make([]string, 0, len(experiment.FivePredictors)+2)
	for _, p := range experiment.FivePredictors {
		specs = append(specs, p+":8KB")
	}
	return append(specs, "tage:8KB", "perceptron:8KB")
}

func newArmRunner(t *testing.T, spec, wl, input string) *sim.Runner {
	t.Helper()
	p, err := predictor.New(spec)
	if err != nil {
		t.Fatalf("predictor %q: %v", spec, err)
	}
	return sim.NewRunner(p, sim.WithCollisions(), sim.WithLabels(wl, input))
}

// eventOnly hides a runner's block methods, so the engine can reach it
// only through trace.Blocks' per-event unrolling.
type eventOnly struct{ r *sim.Runner }

func (e eventOnly) Branch(pc uint64, taken bool) { e.r.Branch(pc, taken) }
func (e eventOnly) Ops(n uint64)                 { e.r.Ops(n) }

// sweepMetrics runs specs over wl's test input as one sweep on a fresh
// engine, wrapping each arm's runner with wrap, and returns each arm's
// metrics and stream counts in spec order.
func sweepMetrics(t *testing.T, wl string, specs []string, wrap func(*sim.Runner) trace.Recorder) ([]sim.Metrics, []trace.Counts) {
	t.Helper()
	prog, err := workload.Get(wl)
	if err != nil {
		t.Fatal(err)
	}
	e := replay.New(4, 0, "")
	defer e.Close()
	runners := make([]*sim.Runner, len(specs))
	arms := make([]arm, len(specs))
	for i, spec := range specs {
		i, spec := i, spec
		arms[i] = arm{Label: spec, New: func() (trace.Recorder, error) {
			runners[i] = newArmRunner(t, spec, wl, workload.InputTest)
			return wrap(runners[i]), nil
		}}
	}
	metrics := make([]sim.Metrics, len(specs))
	counts := make([]trace.Counts, len(specs))
	for i, res := range sweep(context.Background(), e, prog, workload.InputTest, arms) {
		if res.Err != nil {
			t.Fatalf("%s: replay arm failed: %v", res.Label, res.Err)
		}
		metrics[i], counts[i] = runners[i].Metrics(), res.Counts
	}
	return metrics, counts
}

// TestEquivalenceDirectVsReplay is the differential check at the heart of
// the engine's contract: for every workload in the paper suite and every
// predictor, a replayed run must produce bit-identical sim.Metrics —
// including collision counts — to feeding the predictor directly from the
// instrumented workload.
func TestEquivalenceDirectVsReplay(t *testing.T) {
	ctx := context.Background()
	specs := equivalencePredictors()
	for _, wl := range experiment.Suite {
		wl := wl
		t.Run(wl, func(t *testing.T) {
			got, counts := sweepMetrics(t, wl, specs, func(r *sim.Runner) trace.Recorder { return r })
			for i, spec := range specs {
				r := newArmRunner(t, spec, wl, workload.InputTest)
				if err := workload.Run(ctx, wl, workload.InputTest, r); err != nil {
					t.Fatalf("direct %s: %v", spec, err)
				}
				direct := r.Metrics()
				if d := direct.Diff(got[i]); d != "" {
					t.Errorf("%s: replay metrics diverge from direct run: %s", spec, d)
				}
				if counts[i] != direct.Counts {
					t.Errorf("%s: stream counts %+v, want %+v", spec, counts[i], direct.Counts)
				}
			}
		})
	}
}

// TestSweepNoBatchMatchesBatch pins the per-event path to the block path:
// a sweep whose arms hide their block methods, so the engine reaches them
// only through trace.Blocks' per-event unrolling on the capturing arm and
// the replaying ones alike, must produce bit-identical sim.Metrics and
// stream counts to the sweep that feeds the runners whole blocks, arm by
// arm, for every workload in the suite.
func TestSweepNoBatchMatchesBatch(t *testing.T) {
	specs := equivalencePredictors()
	for _, wl := range experiment.Suite {
		wl := wl
		t.Run(wl, func(t *testing.T) {
			on, onCounts := sweepMetrics(t, wl, specs, func(r *sim.Runner) trace.Recorder { return r })
			off, offCounts := sweepMetrics(t, wl, specs, func(r *sim.Runner) trace.Recorder { return eventOnly{r} })
			for i, spec := range specs {
				if d := off[i].Diff(on[i]); d != "" {
					t.Errorf("%s: block sweep diverges from per-event sweep: %s", spec, d)
				}
				if offCounts[i] != onCounts[i] {
					t.Errorf("%s: per-event stream counts %+v, want %+v", spec, offCounts[i], onCounts[i])
				}
			}
		})
	}
}

// emitStream produces a deterministic pseudo-random branch stream long
// enough to span several chunks.
func emitStream(rec trace.Recorder, n int) {
	pc := uint64(0x40_0000)
	state := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < n; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		pc += state % 64
		rec.Branch(pc, state&(1<<40) != 0)
		if i%7 == 0 {
			rec.Ops(state % 9)
		}
	}
}

const streamLen = 200_000

func streamProduce(calls *atomic.Int32) func(trace.Recorder) error {
	return func(rec trace.Recorder) error {
		if calls != nil {
			calls.Add(1)
		}
		emitStream(rec, streamLen)
		return nil
	}
}

// streamBuffer returns the reference copy of the shared test stream.
func streamBuffer() *trace.Buffer {
	var b trace.Buffer
	emitStream(&b, streamLen)
	return &b
}

func sameStream(t *testing.T, label string, got, want *trace.Buffer) {
	t.Helper()
	if got.Counts != want.Counts {
		t.Errorf("%s: counts %+v, want %+v", label, got.Counts, want.Counts)
	}
	if !slices.Equal(got.Events, want.Events) {
		t.Errorf("%s: replayed event sequence diverges (got %d events, want %d)",
			label, len(got.Events), len(want.Events))
	}
}

// TestCaptureOnce proves the singleflight contract: many concurrent arms on
// one key execute the workload exactly once and all observe the identical
// stream.
func TestCaptureOnce(t *testing.T) {
	e := replay.New(4, 0, "")
	defer e.Close()
	var calls atomic.Int32
	produce := streamProduce(&calls)

	const arms = 8
	bufs := make([]*trace.Buffer, arms)
	errs := make([]error, arms)
	var wg sync.WaitGroup
	for i := 0; i < arms; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = e.Run(context.Background(), "k", produce, func() (trace.Recorder, error) {
				bufs[i] = &trace.Buffer{}
				return bufs[i], nil
			})
		}(i)
	}
	wg.Wait()

	if n := calls.Load(); n != 1 {
		t.Errorf("workload executed %d times, want 1", n)
	}
	want := streamBuffer()
	for i := 0; i < arms; i++ {
		if errs[i] != nil {
			t.Fatalf("arm %d: %v", i, errs[i])
		}
		sameStream(t, fmt.Sprintf("arm %d", i), bufs[i], want)
	}
}

// TestSpillToDisk drives the engine past a one-byte memory budget so every
// chunk spills, and proves the replayed stream is still identical, the
// in-memory accounting is zero, and Close removes the spill file.
func TestSpillToDisk(t *testing.T) {
	dir := t.TempDir()
	e := replay.New(2, 1, dir)
	produce := streamProduce(nil)

	const arms = 3
	bufs := make([]*trace.Buffer, arms)
	errs := make([]error, arms)
	var wg sync.WaitGroup
	for i := 0; i < arms; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = e.Run(context.Background(), "k", produce, func() (trace.Recorder, error) {
				bufs[i] = &trace.Buffer{}
				return bufs[i], nil
			})
		}(i)
	}
	wg.Wait()

	want := streamBuffer()
	for i := 0; i < arms; i++ {
		if errs[i] != nil {
			t.Fatalf("arm %d: %v", i, errs[i])
		}
		sameStream(t, fmt.Sprintf("arm %d", i), bufs[i], want)
	}
	if n := e.MemBytes(); n != 0 {
		t.Errorf("in-memory bytes after full spill = %d, want 0", n)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Errorf("spill dir holds %d files, want 1", len(ents))
	}
	e.Close()
	if ents, err = os.ReadDir(dir); err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Errorf("spill dir holds %d files after Close, want 0", len(ents))
	}
}

// TestEventCaptureSpills bounds a capture whose arm takes events alone
// (fed through trace.Blocks), as bptrace record's is: under a memory budget
// smaller than the decoded stream, chunks past it are encoded and spilled,
// memory stays within the budget, and the capturing arm, a replaying arm
// and an export all see the whole stream.
func TestEventCaptureSpills(t *testing.T) {
	dir := t.TempDir()
	const budget = 1 << 20
	e := replay.New(2, budget, dir)
	defer e.Close()
	want := streamBuffer()
	for _, label := range []string{"capturing arm", "replaying arm"} {
		var got trace.Buffer
		if _, err := e.Run(context.Background(), "k", streamProduce(nil), func() (trace.Recorder, error) {
			got = trace.Buffer{}
			return &got, nil
		}); err != nil {
			t.Fatal(err)
		}
		sameStream(t, label, &got, want)
	}
	if n := e.MemBytes(); n == 0 || n > budget {
		t.Errorf("%d bytes held in memory, want some and at most %d", n, budget)
	}
	if fi, err := os.Stat(findSpillFile(t, dir)); err != nil || fi.Size() == 0 {
		t.Errorf("spill file: %v, want chunks spilled", err)
	}
	tr, _ := e.Trace("k")
	var file bytes.Buffer
	if _, err := tr.WriteTo(&file); err != nil {
		t.Fatal(err)
	}
	r, err := trace.NewReader(&file)
	if err != nil {
		t.Fatal(err)
	}
	var got trace.Buffer
	if _, err := r.Replay(&got); err != nil {
		t.Fatal(err)
	}
	sameStream(t, "exported file", &got, want)
}

// TestWriteTo proves a captured trace exports as a version-3 (BTRC3) trace
// file that trace.NewReader replays identically — with and without spilling.
func TestWriteTo(t *testing.T) {
	for _, budget := range []int64{0, 1} {
		name := "in-memory"
		if budget > 0 {
			name = "spilled"
		}
		t.Run(name, func(t *testing.T) {
			e := replay.New(2, budget, t.TempDir())
			defer e.Close()
			if _, err := e.Run(context.Background(), "k", streamProduce(nil), func() (trace.Recorder, error) {
				return trace.Discard, nil
			}); err != nil {
				t.Fatal(err)
			}
			tr, ok := e.Trace("k")
			if !ok {
				t.Fatal("trace not cached after capture")
			}
			var file bytes.Buffer
			if _, err := tr.WriteTo(&file); err != nil {
				t.Fatal(err)
			}
			r, err := trace.NewReader(&file)
			if err != nil {
				t.Fatal(err)
			}
			var got trace.Buffer
			if _, err := r.Replay(&got); err != nil {
				t.Fatal(err)
			}
			sameStream(t, "exported file", &got, streamBuffer())
		})
	}
}

func TestClosedEngine(t *testing.T) {
	e := replay.New(1, 0, "")
	e.Close()
	_, err := e.Run(context.Background(), "k", streamProduce(nil), func() (trace.Recorder, error) {
		return trace.Discard, nil
	})
	if !errors.Is(err, replay.ErrClosed) {
		t.Errorf("Run on closed engine: got %v, want ErrClosed", err)
	}
	e.Close() // idempotent
}

// TestCaptureFailureRetry fails the first capture midway through the
// stream. Exactly one arm (the failed capturer) reports the workload
// error; every other arm must transparently rebuild its recorder and
// replay the successful recapture — with no trace of the partial stream.
func TestCaptureFailureRetry(t *testing.T) {
	e := replay.New(4, 0, "")
	defer e.Close()
	boom := errors.New("boom")
	var calls atomic.Int32
	produce := func(rec trace.Recorder) error {
		if calls.Add(1) == 1 {
			emitStream(rec, streamLen/10) // partial stream, then die
			return boom
		}
		emitStream(rec, streamLen)
		return nil
	}

	const arms = 4
	bufs := make([]*trace.Buffer, arms)
	errs := make([]error, arms)
	var wg sync.WaitGroup
	for i := 0; i < arms; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = e.Run(context.Background(), "k", produce, func() (trace.Recorder, error) {
				bufs[i] = &trace.Buffer{}
				return bufs[i], nil
			})
		}(i)
	}
	wg.Wait()

	if n := calls.Load(); n != 2 {
		t.Errorf("workload executed %d times, want 2 (failed capture + recapture)", n)
	}
	want := streamBuffer()
	var failed int
	for i := 0; i < arms; i++ {
		if errs[i] != nil {
			failed++
			if !errors.Is(errs[i], boom) {
				t.Errorf("arm %d: error %v, want the workload's", i, errs[i])
			}
			continue
		}
		sameStream(t, fmt.Sprintf("arm %d", i), bufs[i], want)
	}
	if failed != 1 {
		t.Errorf("%d arms failed, want exactly 1 (the original capturer)", failed)
	}
}

// TestPanicArmFailsAlone injects a panicking predictor into one arm of a
// three-arm sweep: that arm must fail with a PanicError while the others
// finish with metrics identical to direct runs — even when the panicking
// arm happened to be the capturer.
func TestPanicArmFailsAlone(t *testing.T) {
	ctx := context.Background()
	const wl, input = "synth", workload.InputTest
	specs := []string{"gshare:8KB", "2bcgskew:8KB"}
	direct := make([]sim.Metrics, len(specs))
	for i, spec := range specs {
		r := newArmRunner(t, spec, wl, input)
		if err := workload.Run(ctx, wl, input, r); err != nil {
			t.Fatal(err)
		}
		direct[i] = r.Metrics()
	}

	prog, err := workload.Get(wl)
	if err != nil {
		t.Fatal(err)
	}
	e := replay.New(4, 0, "")
	defer e.Close()
	arms := []arm{
		{Label: "faulty", New: func() (trace.Recorder, error) {
			inner, err := predictor.New("gshare:8KB")
			if err != nil {
				return nil, err
			}
			p := &faults.Predictor{Inner: inner, Plan: faults.NewPlan(faults.Fault{
				At: 1000, Kind: faults.KindPanic, Msg: "injected predictor bug",
			})}
			return sim.NewRunner(p), nil
		}},
		{Label: specs[0], New: func() (trace.Recorder, error) {
			return newArmRunner(t, specs[0], wl, input), nil
		}},
		{Label: specs[1], New: func() (trace.Recorder, error) {
			return newArmRunner(t, specs[1], wl, input), nil
		}},
	}
	results := sweep(ctx, e, prog, input, arms)

	var pe *workload.PanicError
	if !errors.As(results[0].Err, &pe) {
		t.Errorf("faulty arm: error %v, want a *workload.PanicError", results[0].Err)
	}
	for i, res := range results[1:] {
		if res.Err != nil {
			t.Errorf("%s: healthy arm failed: %v", res.Label, res.Err)
			continue
		}
		got := res.Rec.(*sim.Runner).Metrics()
		if d := direct[i].Diff(got); d != "" {
			t.Errorf("%s: metrics diverge after sibling panic: %s", res.Label, d)
		}
	}
}

// gatedRec feeds a runner, and the first block the engine hands it waits
// until gate closes. It fails the test if that takes 10 s.
type gatedRec struct {
	t       *testing.T
	r       *sim.Runner
	gate    <-chan struct{}
	entered bool
}

func (g *gatedRec) RunBlock(pcs []uint64, taken []bool, ops []uint64) {
	if !g.entered {
		g.entered = true
		select {
		case <-g.gate:
		case <-time.After(10 * time.Second):
			g.t.Error("the capturing arm's first block waited 10 s for the workload to return")
		}
	}
	g.r.RunBlock(pcs, taken, ops)
}

func (g *gatedRec) Branch(pc uint64, taken bool) { g.r.Branch(pc, taken) }
func (g *gatedRec) Ops(n uint64)                 { g.r.Ops(n) }

// TestCaptureRunsAheadOfCapturingArm holds the capturing arm's first block
// until the workload has returned. The capture must not wait for the arm
// that started it: it runs on its own goroutine, and the arm replays the
// finished stream to the same counts and metrics as a direct run. The arm
// counts as one capture, its chunks are not counted as replayed, and the
// capture is timed once.
func TestCaptureRunsAheadOfCapturingArm(t *testing.T) {
	ctx := context.Background()
	const wl, input, spec = "synth", workload.InputTest, "gshare:8KB"
	direct := newArmRunner(t, spec, wl, input)
	if err := workload.Run(ctx, wl, input, direct); err != nil {
		t.Fatal(err)
	}
	want := direct.Metrics()
	if want.Counts.Branches <= 16<<10 {
		t.Fatalf("%s/%s has %d branches; the test needs more than one chunk", wl, input, want.Counts.Branches)
	}
	prog, err := workload.Get(wl)
	if err != nil {
		t.Fatal(err)
	}
	produced := make(chan struct{})
	produce := func(rec trace.Recorder) error {
		defer close(produced)
		return workload.RunProgram(ctx, prog, input, rec)
	}

	e := replay.New(2, 0, "")
	defer e.Close()
	sink := obs.New()
	e.SetObserver(sink)
	var r *sim.Runner
	c, src, err := e.RunSourced(ctx, replay.Key(wl, input), produce, func() (trace.Recorder, error) {
		r = newArmRunner(t, spec, wl, input)
		return &gatedRec{t: t, r: r, gate: produced}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if src != replay.SourceCapture {
		t.Errorf("source %v, want %v", src, replay.SourceCapture)
	}
	if c != want.Counts {
		t.Errorf("stream counts %+v, want %+v", c, want.Counts)
	}
	if d := want.Diff(r.Metrics()); d != "" {
		t.Errorf("capturing arm's metrics diverge from a direct run: %s", d)
	}
	for name, want := range map[string]int64{
		obs.MReplayCaptures:       1,
		obs.MReplayReplays:        0,
		obs.MReplayChunksReplayed: 0,
	} {
		if n := int64(sink.Counter(name).Value()); n != want {
			t.Errorf("%s = %d, want %d", name, n, want)
		}
	}
	if n := sink.Histogram(obs.MReplayCapture).Count(); n != 1 {
		t.Errorf("%s observed %d times, want 1", obs.MReplayCapture, n)
	}
}

// TestCapturingArmPanicKeepsCapture makes the capturing arm's predictor
// panic at event 1000. That arm fails alone with its own PanicError; the
// capture it started runs on, so the other arms match direct runs and the
// workload executes exactly once.
func TestCapturingArmPanicKeepsCapture(t *testing.T) {
	ctx := context.Background()
	const wl, input = "synth", workload.InputTest
	specs := []string{"gshare:8KB", "2bcgskew:8KB"}
	direct := make([]sim.Metrics, len(specs))
	for i, spec := range specs {
		r := newArmRunner(t, spec, wl, input)
		if err := workload.Run(ctx, wl, input, r); err != nil {
			t.Fatal(err)
		}
		direct[i] = r.Metrics()
	}
	prog, err := workload.Get(wl)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int32
	started := make(chan struct{})
	produce := func(rec trace.Recorder) error {
		if calls.Add(1) == 1 {
			close(started)
		}
		return workload.RunProgram(ctx, prog, input, rec)
	}

	e := replay.New(4, 0, "")
	defer e.Close()
	key := replay.Key(wl, input)
	faulty := make(chan error, 1)
	go func() {
		_, err := runGuarded(ctx, e, key, produce, func() (trace.Recorder, error) {
			inner, err := predictor.New("gshare:8KB")
			if err != nil {
				return nil, err
			}
			return sim.NewRunner(&faults.Predictor{Inner: inner, Plan: faults.NewPlan(faults.Fault{
				At: 1000, Kind: faults.KindPanic, Msg: "injected predictor bug",
			})}), nil
		})
		faulty <- err
	}()
	<-started // the faulty arm is the capturer

	runners := make([]*sim.Runner, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec string) {
			defer wg.Done()
			_, errs[i] = runGuarded(ctx, e, key, produce, func() (trace.Recorder, error) {
				runners[i] = newArmRunner(t, spec, wl, input)
				return runners[i], nil
			})
		}(i, spec)
	}
	wg.Wait()

	var pe *workload.PanicError
	if err := <-faulty; !errors.As(err, &pe) || pe.Value != "injected predictor bug" {
		t.Errorf("capturing arm: error %v, want its own *workload.PanicError", err)
	} else if !strings.Contains(string(pe.Stack), "Predict") {
		t.Errorf("capturing arm's panic stack does not name the predictor:\n%s", pe.Stack)
	}
	for i, spec := range specs {
		if errs[i] != nil {
			t.Errorf("%s: healthy arm failed: %v", spec, errs[i])
			continue
		}
		if d := direct[i].Diff(runners[i].Metrics()); d != "" {
			t.Errorf("%s: metrics diverge after the capturing arm's panic: %s", spec, d)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("workload executed %d times, want 1", n)
	}
}

// TestCancellationDrains cancels a running capture with replaying arms
// attached: every arm must return an error and every goroutine must drain
// — no replay may hang waiting for a chunk that will never seal.
func TestCancellationDrains(t *testing.T) {
	before := runtime.NumGoroutine()
	e := replay.New(4, 0, "")
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{})
	var once sync.Once
	produce := func(rec trace.Recorder) error {
		for i := 0; i < 1<<30; i++ {
			rec.Branch(uint64(i)*8, i&3 == 0)
			if i%4096 == 0 {
				once.Do(func() { close(started) })
				if err := ctx.Err(); err != nil {
					return err
				}
			}
		}
		return nil
	}

	const arms = 4
	errs := make([]error, arms)
	var wg sync.WaitGroup
	for i := 0; i < arms; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = e.Run(ctx, "k", produce, func() (trace.Recorder, error) {
				return &trace.Counts{}, nil
			})
		}(i)
	}
	<-started
	time.Sleep(5 * time.Millisecond)
	cancel()
	wg.Wait()

	for i, err := range errs {
		if !errors.Is(err, context.Canceled) && !errors.Is(err, replay.ErrCaptureFailed) {
			t.Errorf("arm %d: error %v, want cancellation", i, err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not drain: %d now, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplayStopPanic checks that a recorder's own cooperative-cancellation
// Stop (a sim.Runner built WithContext) surfaces as an error from a replay,
// not as a panic through the pool.
func TestReplayStopPanic(t *testing.T) {
	e := replay.New(2, 0, "")
	defer e.Close()
	ctx := context.Background()
	if _, err := e.Run(ctx, "k", streamProduce(nil), func() (trace.Recorder, error) {
		return trace.Discard, nil
	}); err != nil {
		t.Fatal(err)
	}

	armCtx, armCancel := context.WithCancel(context.Background())
	armCancel() // the runner notices via its own cancellation cadence
	_, err := e.Run(ctx, "k", streamProduce(nil), func() (trace.Recorder, error) {
		p, perr := predictor.New("gshare:8KB")
		if perr != nil {
			return nil, perr
		}
		return sim.NewRunner(p, sim.WithContext(armCtx)), nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("replay with cancelled runner: got %v, want context.Canceled", err)
	}
}

// gaugeRec measures how many replays are decoding concurrently: it marks
// itself active on its first event and inactive once it has consumed the
// whole known stream.
type gaugeRec struct {
	active, max *atomic.Int32
	remaining   int
	seen        bool
}

func (g *gaugeRec) Branch(pc uint64, taken bool) {
	if !g.seen {
		g.seen = true
		a := g.active.Add(1)
		for {
			m := g.max.Load()
			if a <= m || g.max.CompareAndSwap(m, a) {
				break
			}
		}
		time.Sleep(200 * time.Microsecond) // widen the overlap window
	}
	g.remaining--
	if g.remaining == 0 {
		g.active.Add(-1)
	}
}

func (g *gaugeRec) Ops(uint64) {}

// TestWorkerPoolBound proves the semaphore caps concurrent replay decodes
// at the configured worker count.
func TestWorkerPoolBound(t *testing.T) {
	const workers = 2
	e := replay.New(workers, 0, "")
	defer e.Close()
	ctx := context.Background()
	counts, err := e.Run(ctx, "k", streamProduce(nil), func() (trace.Recorder, error) {
		return trace.Discard, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var active, max atomic.Int32
	const arms = 6
	var wg sync.WaitGroup
	errs := make([]error, arms)
	for i := 0; i < arms; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = e.Run(ctx, "k", streamProduce(nil), func() (trace.Recorder, error) {
				return &gaugeRec{active: &active, max: &max, remaining: int(counts.Branches)}, nil
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("arm %d: %v", i, err)
		}
	}
	if m := max.Load(); m > workers {
		t.Errorf("observed %d concurrent replays, want at most %d", m, workers)
	}
}

// findSpillFile returns the single spill file in dir.
func findSpillFile(t *testing.T, dir string) string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var spills []string
	for _, e := range ents {
		if !e.IsDir() {
			spills = append(spills, filepath.Join(dir, e.Name()))
		}
	}
	if len(spills) != 1 {
		t.Fatalf("spill dir holds %d files, want 1", len(spills))
	}
	return spills[0]
}

// TestCorruptSpillQuarantinedAndRecaptured is the durability contract end
// to end: a bit flipped in a spilled chunk must be detected before any of
// its events reach an arm, the evidence quarantined, and the stream
// transparently recaptured so the arm's replay is bit-identical to the
// uncorrupted stream.
func TestCorruptSpillQuarantinedAndRecaptured(t *testing.T) {
	spillDir, quarDir := t.TempDir(), t.TempDir()
	var logs []string
	e := replay.New(2, 1, spillDir,
		replay.WithQuarantine(quarDir),
		replay.WithLogf(func(format string, args ...any) {
			logs = append(logs, fmt.Sprintf(format, args...))
		}))
	defer e.Close()
	var calls atomic.Int32
	produce := streamProduce(&calls)

	// Capture once; every chunk spills under the 1-byte budget.
	if _, err := e.Run(context.Background(), "k", produce, func() (trace.Recorder, error) {
		return trace.Discard, nil
	}); err != nil {
		t.Fatal(err)
	}

	// Flip one payload bit on disk, past the 6-byte file header and the
	// first frame's header.
	spill := findSpillFile(t, spillDir)
	raw, err := os.ReadFile(spill)
	if err != nil {
		t.Fatal(err)
	}
	raw[64] ^= 0x10
	if err := os.WriteFile(spill, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// A replaying arm must end up with the pristine stream regardless.
	var got trace.Buffer
	if _, err := e.Run(context.Background(), "k", produce, func() (trace.Recorder, error) {
		got = trace.Buffer{}
		return &got, nil
	}); err != nil {
		t.Fatalf("replay over corrupt spill: %v", err)
	}
	sameStream(t, "recaptured arm", &got, streamBuffer())
	if n := calls.Load(); n != 2 {
		t.Errorf("workload executed %d times, want 2 (capture + recapture)", n)
	}

	// The evidence must be preserved: the corrupt chunk written aside and
	// the corrupt spill file renamed into the quarantine directory.
	ents, err := os.ReadDir(quarDir)
	if err != nil {
		t.Fatal(err)
	}
	var chunkFiles, spillFiles int
	for _, ent := range ents {
		if strings.HasPrefix(ent.Name(), "chunk-") {
			chunkFiles++
		}
		if strings.HasPrefix(ent.Name(), "bpreplay-") {
			spillFiles++
		}
	}
	if chunkFiles != 1 || spillFiles != 1 {
		t.Errorf("quarantine dir holds %d chunk files and %d spill files, want 1 and 1", chunkFiles, spillFiles)
	}
	// The quarantined chunk file reproduces the verification failure.
	if chunkFiles == 1 {
		for _, ent := range ents {
			if !strings.HasPrefix(ent.Name(), "chunk-") {
				continue
			}
			f, err := os.Open(filepath.Join(quarDir, ent.Name()))
			if err != nil {
				t.Fatal(err)
			}
			r, err := trace.NewReader(f)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.Replay(trace.Discard); !errors.Is(err, trace.ErrCorrupt) {
				t.Errorf("quarantined chunk replays with %v, want ErrCorrupt", err)
			}
			f.Close()
		}
	}
	if len(logs) == 0 {
		t.Error("no quarantine events logged")
	}
}

// TestCorruptSpillZeroEventsLeak pins the stronger half of the contract:
// not a single event from a corrupt chunk may reach a recorder, even on
// the attempt that discovers the corruption.
func TestCorruptSpillZeroEventsLeak(t *testing.T) {
	spillDir := t.TempDir()
	e := replay.New(2, 1, spillDir)
	defer e.Close()
	boom := errors.New("recapture sentinel")
	var calls atomic.Int32
	produce := func(rec trace.Recorder) error {
		if calls.Add(1) == 2 {
			return boom // fail the recapture so the replayer's buffers stay inspectable
		}
		emitStream(rec, streamLen)
		return nil
	}
	if _, err := e.Run(context.Background(), "k", produce, func() (trace.Recorder, error) {
		return trace.Discard, nil
	}); err != nil {
		t.Fatal(err)
	}

	spill := findSpillFile(t, spillDir)
	raw, err := os.ReadFile(spill)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the FIRST chunk so the replaying recorder must see nothing.
	raw[16] ^= 0x01
	if err := os.WriteFile(spill, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	var bufs []*trace.Buffer
	_, err = e.Run(context.Background(), "k", produce, func() (trace.Recorder, error) {
		b := &trace.Buffer{}
		bufs = append(bufs, b)
		return b, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the recapture sentinel", err)
	}
	for i, b := range bufs {
		if i == len(bufs)-1 {
			break // the final attempt fed from the failed recapture; partial by design
		}
		if len(b.Events) != 0 {
			t.Errorf("recorder %d saw %d events from a corrupt chunk, want 0", i, len(b.Events))
		}
	}
}

// TestSpillENOSPCDowngradesToMemory proves graceful degradation: when the
// spill file hits disk-full, the capture keeps every chunk in memory (over
// budget), the stream stays correct, and the downgrade is logged.
func TestSpillENOSPCDowngradesToMemory(t *testing.T) {
	var logs []string
	ffs := &faults.FS{Inner: fsx.OS, Plan: faults.NewPlan(faults.Fault{
		At: 4, Kind: faults.KindENOSPC, // let the header and first chunk land, then fill the disk
	})}
	e := replay.New(2, 1, t.TempDir(),
		replay.WithFS(ffs),
		replay.WithLogf(func(format string, args ...any) {
			logs = append(logs, fmt.Sprintf(format, args...))
		}))
	defer e.Close()

	var got trace.Buffer
	if _, err := e.Run(context.Background(), "k", streamProduce(nil), func() (trace.Recorder, error) {
		return trace.Discard, nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(context.Background(), "k", streamProduce(nil), func() (trace.Recorder, error) {
		return &got, nil
	}); err != nil {
		t.Fatal(err)
	}
	sameStream(t, "after ENOSPC downgrade", &got, streamBuffer())
	if e.MemBytes() == 0 {
		t.Error("no chunks held in memory after the spill downgrade")
	}
	found := false
	for _, l := range logs {
		if strings.Contains(l, "spill write failed") {
			found = true
		}
	}
	if !found {
		t.Errorf("downgrade not logged; logs: %q", logs)
	}
}
