package replay_test

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"

	"branchsim/internal/replay"
	"branchsim/internal/trace"
	"branchsim/internal/workload"
)

// arm is one predictor configuration swept over a shared capture.
type arm struct {
	// Label identifies the arm in its result.
	Label string
	// New builds the arm's recorder, typically a *sim.Runner. It is
	// called again if the arm must restart after a failed shared capture,
	// so it must return a fresh recorder with no carried-over state.
	New func() (trace.Recorder, error)
}

// result is one arm's outcome.
type result struct {
	Label string
	// Rec is the recorder that consumed the complete stream (nil when New
	// failed); cast it back to read the arm's metrics.
	Rec trace.Recorder
	// Counts totals the stream the arm consumed.
	Counts trace.Counts
	// Err is the arm's failure: its own panic (as a *workload.PanicError),
	// the workload's error, or the context's.
	Err error
}

// sweep runs prog on input — once — and feeds every arm from e's shared
// capture, concurrently, overlapping the capture itself. One arm drives
// the instrumented execution while it simulates; the rest replay. A
// panicking arm fails alone: its result carries the panic as an error, and
// if it was the capturer, the surviving arms transparently recapture.
func sweep(ctx context.Context, e *replay.Engine, prog workload.Program, input string, arms []arm) []result {
	produce := func(r trace.Recorder) error {
		return workload.RunProgram(ctx, prog, input, r)
	}
	key := replay.Key(prog.Name(), input)
	results := make([]result, len(arms))
	var wg sync.WaitGroup
	for i := range arms {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a := arms[i]
			var rec trace.Recorder
			newRec := func() (trace.Recorder, error) {
				r, err := a.New()
				if err != nil {
					return nil, fmt.Errorf("replay: building arm %q: %w", a.Label, err)
				}
				rec = r
				return r, nil
			}
			c, err := runGuarded(ctx, e, key, produce, newRec)
			results[i] = result{Label: a.Label, Rec: rec, Counts: c, Err: err}
		}(i)
	}
	wg.Wait()
	return results
}

// runGuarded is e.Run with the pipeline's panic isolation: a cooperative
// cancellation Stop becomes its error, any other panic a PanicError.
func runGuarded(ctx context.Context, e *replay.Engine, key string, produce func(trace.Recorder) error, newRec func() (trace.Recorder, error)) (c trace.Counts, err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if stopErr, ok := trace.AsStop(r); ok {
			err = stopErr
			return
		}
		err = &workload.PanicError{Value: r, Stack: debug.Stack()}
	}()
	return e.Run(ctx, key, produce, newRec)
}
