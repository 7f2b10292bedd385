package experiment

import (
	"io"
	"time"

	"branchsim/internal/obs"
	"branchsim/internal/predictor"
	"branchsim/internal/replay"
	"branchsim/internal/telemetry"
	"branchsim/internal/workload"
)

// HarnessOption configures a Harness at construction. Options are the only
// way to set everything but the inputs and the replay engine.
type HarnessOption func(*Harness)

// WithLogger sends one human-readable line per uncached simulation (and per
// checkpoint event) to w. For structured, machine-readable output attach an
// observer with a journal instead — see WithObserver.
func WithLogger(w io.Writer) HarnessOption {
	return func(h *Harness) { h.log = w }
}

// WithArmTimeout bounds each uncached simulation with its own deadline.
func WithArmTimeout(d time.Duration) HarnessOption {
	return func(h *Harness) { h.armTimeout = d }
}

// WithRetry sets the in-place retry policy for transient arm failures.
func WithRetry(p RetryPolicy) HarnessOption {
	return func(h *Harness) { h.profiles.retry, h.hints.retry, h.runs.retry = p, p, p }
}

// WithCheckpoint journals completed work into cp and consults it before
// simulating, so a killed sweep resumes where it stopped.
func WithCheckpoint(cp *Checkpoint) HarnessOption {
	return func(h *Harness) { h.checkpoint = cp }
}

// WithReplay attaches a capture-once replay engine: one instrumented
// execution per (workload, input) is shared across uncached arms. The
// caller keeps ownership of the engine (and closes it); to let the harness
// own one, use WithWorkers instead.
func WithReplay(e *replay.Engine) HarnessOption {
	return func(h *Harness) { h.Replay = e }
}

// WithWorkers attaches a harness-owned capture-once replay engine whose
// worker pool is bounded at n concurrent replay decodes (n <= 0 means
// GOMAXPROCS). The engine is created with an unbounded memory budget;
// sweeps that need spill-to-disk should build their own engine and pass it
// with WithReplay, which takes precedence. Close the harness to release the
// owned engine.
func WithWorkers(n int) HarnessOption {
	return func(h *Harness) { h.workers = n; h.wantOwnedReplay = true }
}

// WithObserver threads the observability layer through the harness: per-arm
// lifecycle spans (with phase timings and cache-hit provenance) flow to o's
// journal, and the harness's counters — arms, retries, checkpoint and
// singleflight hits — to o's registry. The observer is also propagated to
// the replay engine attached at construction time. A nil o leaves the
// harness unobserved (the zero-cost default).
func WithObserver(o *obs.Observer) HarnessOption {
	return func(h *Harness) { h.obs = o }
}

// WithTelemetry enables simulation-domain telemetry on every uncached arm:
// interval time-series, predictor-table samples and per-branch top-K
// statistics per cfg, journaled through the harness's observer (attach one
// with WithObserver — without a journal the records have nowhere to go). The
// zero config disables telemetry entirely.
func WithTelemetry(cfg telemetry.Config) HarnessOption {
	return func(h *Harness) { h.telemetry = cfg }
}

// WithLookup substitutes the workload resolver (nil means workload.Get).
// Fault-injection tests use it to wrap programs with fault plans.
func WithLookup(fn func(name string) (workload.Program, error)) HarnessOption {
	return func(h *Harness) { h.lookupFn = fn }
}

// WithPredictorFactory substitutes the predictor builder (nil means
// predictor.New). Fault-injection tests use it to wrap predictors.
func WithPredictorFactory(fn func(spec string) (predictor.Predictor, error)) HarnessOption {
	return func(h *Harness) { h.predictorFn = fn }
}

// apply runs opts and finalizes cross-option wiring: a WithWorkers-owned
// replay engine is created only when WithReplay did not supply one, and the
// observer is propagated to whichever engine ended up attached.
func (h *Harness) apply(opts []HarnessOption) *Harness {
	for _, opt := range opts {
		opt(h)
	}
	if h.Replay == nil && h.wantOwnedReplay {
		h.Replay = replay.New(h.workers, 0, "")
		h.ownedReplay = true
	}
	if h.Replay != nil && h.obs != nil {
		h.Replay.SetObserver(h.obs)
	}
	return h
}

// Close releases resources the harness owns — the replay engine created by
// WithWorkers (WithReplay engines stay with their caller) — then quiesces
// the attached observer: progress-reporter goroutines are stopped and the
// journal is flushed (and fsynced, when file-backed) so every record written
// so far is durable when Close returns. The observer itself stays open — it
// belongs to the caller, who may share it across harnesses. Safe to call on
// a harness without owned resources, and idempotent.
func (h *Harness) Close() {
	if h.ownedReplay && h.Replay != nil {
		h.Replay.Close()
		h.Replay = nil
		h.ownedReplay = false
	}
	h.obs.StopProgress()
	if err := h.obs.Flush(); err != nil {
		h.logf("journal flush: %v", err)
	}
}
