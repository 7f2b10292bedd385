package branchsim

import (
	"context"
	"fmt"

	"branchsim/internal/obs"
	"branchsim/internal/predictor"
	"branchsim/internal/sim"
	"branchsim/internal/telemetry"
	"branchsim/internal/trace"
	"branchsim/internal/workload"
)

// SimOption configures one Simulate call. Options compose left to right;
// later options override earlier ones where they overlap (e.g. the last of
// WithPredictor / WithPredictorSpec wins).
type SimOption func(*simConfig)

type simConfig struct {
	workload   string
	input      string
	pred       Predictor
	predSpec   string
	collisions bool
	noBatch    bool
	profile    *ProfileDB
	obs        *obs.Observer
	telemetry  telemetry.Config
}

// Workload names the instrumented program to simulate ("gcc", "compress").
func Workload(name string) SimOption {
	return func(c *simConfig) { c.workload = name }
}

// Input names the workload input set (InputTest, InputTrain, InputRef).
func Input(name string) SimOption {
	return func(c *simConfig) { c.input = name }
}

// WithPredictor sets the predictor under test — possibly a *Combined built
// by Combine. It takes precedence over WithPredictorSpec.
func WithPredictor(p Predictor) SimOption {
	return func(c *simConfig) { c.pred = p; c.predSpec = "" }
}

// WithPredictorSpec builds the predictor from a spec string such as
// "gshare:16KB" or "gshare:4KB:h=8" (see PredictorNames for schemes). An
// empty spec means no predictor: combined with WithProfileInto it collects
// the paper's bias-only profile.
func WithPredictorSpec(spec string) SimOption {
	return func(c *simConfig) { c.pred = nil; c.predSpec = spec }
}

// WithCollisions enables the paper's aliasing instrumentation when the
// predictor supports it (see the Collider interface).
func WithCollisions() SimOption {
	return func(c *simConfig) { c.collisions = true }
}

// WithBatch toggles the batched simulation route (the default is on). When
// the predictor has a devirtualized block kernel, Simulate records the
// workload's branch stream into in-memory chunks and feeds it back through
// the block decoder, instead of fusing per-event prediction into the
// instrumented execution. Results are bit-identical either way; off is the
// -no-batch escape hatch and the scalar baseline for benchmarks.
func WithBatch(on bool) SimOption {
	return func(c *simConfig) { c.noBatch = !on }
}

// WithProfileInto collects per-branch statistics into db during the run
// (the paper's phase-1 profiling). With no predictor configured, the run is
// a bias-only profile pass: no prediction happens, and the returned Metrics
// carry only the stream counts.
func WithProfileInto(db *ProfileDB) SimOption {
	return func(c *simConfig) { c.profile = db }
}

// WithObserver publishes the run to an observability sink: branch-event
// counters stream to o's registry while the run executes, and one ArmRecord
// (kind "simulate") is journaled when it completes. A nil o — the default —
// disables observation at zero cost. Observation never changes results.
func WithObserver(o *Observer) SimOption {
	return func(c *simConfig) { c.obs = o }
}

// WithTelemetry enables simulation-domain telemetry for the run: an interval
// time-series of the paper's metrics, predictor-table introspection samples,
// and per-branch bias/misprediction statistics with bounded top-K
// worst-offender lists, per cfg (see TelemetryConfig). The records are
// journaled through the observer attached with WithObserver; without one
// they are collected and discarded. The zero config disables telemetry.
func WithTelemetry(cfg TelemetryConfig) SimOption {
	return func(c *simConfig) { c.telemetry = cfg }
}

// Simulate executes one simulation described by options and returns its
// metrics:
//
//	m, err := branchsim.Simulate(ctx,
//		branchsim.Workload("gcc"),
//		branchsim.Input(branchsim.InputRef),
//		branchsim.WithPredictorSpec("gshare:16KB"),
//		branchsim.WithCollisions(),
//	)
//
// The run executes under ctx (nil means context.Background()): cancelling
// it stops the run cooperatively, and a panicking predictor or workload is
// returned as a *PanicError instead of crashing the process.
func Simulate(ctx context.Context, opts ...SimOption) (Metrics, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var cfg simConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	pred := cfg.pred
	if pred == nil && cfg.predSpec != "" {
		p, err := predictor.New(cfg.predSpec)
		if err != nil {
			return Metrics{}, err
		}
		pred = p
	}
	if pred == nil && cfg.profile == nil {
		return Metrics{}, fmt.Errorf("branchsim: no predictor configured: pass WithPredictor or WithPredictorSpec (or WithProfileInto for a bias-only profile)")
	}
	label := predictor.Canonical(cfg.predSpec)
	if label == "" && pred != nil {
		label = pred.Name()
	}
	span := cfg.obs.StartArm("simulate", "s|"+cfg.workload+"|"+cfg.input+"|"+label)
	span.SetLabels(cfg.workload, cfg.input, label, "")
	m, err := cfg.simulate(ctx, pred, span)
	if err == nil {
		span.SetEvents(m.Branches)
		span.SetMetrics(m)
	}
	span.End(err)
	return m, err
}

// simulate runs the configured simulation: a bias-only profile pass when no
// predictor is configured, a full predictor run otherwise.
func (cfg *simConfig) simulate(ctx context.Context, pred Predictor, span *obs.Span) (Metrics, error) {
	prog, err := workload.Get(cfg.workload)
	if err != nil {
		return Metrics{}, err
	}
	if pred == nil {
		rec := &biasRecorder{db: cfg.profile}
		end := span.Phase(obs.PhaseSimulate)
		err := workload.RunProgram(ctx, prog, cfg.input, rec)
		end()
		if err != nil {
			return Metrics{}, err
		}
		cfg.profile.Instructions = rec.counts.Instructions
		return Metrics{Workload: cfg.workload, Input: cfg.input, Counts: rec.counts}, nil
	}
	sopts := []sim.Option{sim.WithLabels(cfg.workload, cfg.input), sim.WithObserver(cfg.obs),
		sim.WithTelemetry(telemetry.New(cfg.telemetry, cfg.obs))}
	if cfg.collisions {
		sopts = append(sopts, sim.WithCollisions())
	}
	if cfg.profile != nil {
		sopts = append(sopts, sim.WithProfile(cfg.profile))
	}
	runner := sim.NewRunner(pred, sopts...)
	end := span.Phase(obs.PhaseSimulate)
	if !cfg.noBatch && runner.BatchKernel() {
		err = runBatched(ctx, prog, cfg.input, runner)
	} else {
		err = workload.RunProgram(ctx, prog, cfg.input, runner)
	}
	end()
	if err != nil {
		return Metrics{}, err
	}
	return runner.Metrics(), nil
}

// runBatched is the facade's batch route: the instrumented workload records
// through a trace.Batcher, which hands the runner's devirtualized kernel
// whole blocks of branches instead of one event at a time. The stream the
// runner consumes is identical to the one direct execution would feed it, in
// the same order; only the dispatch granularity changes, so results are
// bit-identical to the scalar route.
func runBatched(ctx context.Context, prog workload.Program, input string, runner *sim.Runner) error {
	b := trace.NewBatcher(runner, 0)
	if err := workload.RunProgram(ctx, prog, input, b); err != nil {
		return err
	}
	b.Flush()
	return nil
}
