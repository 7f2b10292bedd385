// Package experiment defines one runnable experiment per table and figure of
// the paper, plus ablations, all sharing a caching harness so that repeated
// arms (baseline runs, phase-1 profiles, hint sets) are computed once.
package experiment

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"branchsim/internal/core"
	"branchsim/internal/obs"
	"branchsim/internal/predictor"
	"branchsim/internal/profile"
	"branchsim/internal/replay"
	"branchsim/internal/report"
	"branchsim/internal/sim"
	"branchsim/internal/telemetry"
	"branchsim/internal/trace"
	"branchsim/internal/workload"
)

// Suite is the paper's benchmark order (Table 1).
var Suite = []string{"go", "gcc", "perl", "m88ksim", "compress", "ijpeg"}

// FivePredictors are the paper's evaluated schemes, in Table 2 order.
var FivePredictors = []string{"bimodal", "ghist", "gshare", "bimode", "2bcgskew"}

// Harness runs simulations for experiments, memoizing profiles, hint sets
// and runs. It is safe for concurrent use: concurrent requests for the same
// arm share one simulation (singleflight), so experiments can run in
// parallel over one harness without duplicating the shared baselines.
//
// The harness is also the resilience boundary of a sweep. Every arm runs
// under the caller's context (plus an optional per-arm deadline), a
// panicking predictor or workload fails only its own arm (surfaced as an
// *ArmError), failures are never memoized, and — with a Checkpoint
// attached — completed work is journaled to disk so a killed sweep resumes
// where it stopped.
type Harness struct {
	// RefInput is the measurement input (paper: "ref").
	RefInput string
	// TrainInput is the profiling input for cross-training experiments
	// (paper: "train").
	TrainInput string
	// Replay, when non-nil, shares one instrumented execution per
	// (workload, input) across uncached arms: the first arm to need a
	// stream captures it while simulating, concurrent arms replay the
	// capture instead of re-running the workload. Metrics are
	// bit-identical to direct execution, and singleflight and checkpoint
	// keys are unchanged, so attaching an engine never changes results —
	// only how often workloads execute. Set it with WithReplay or
	// WithWorkers.
	Replay *replay.Engine

	// The options' settings; each option's doc says what it does. Nil
	// lookupFn and predictorFn mean workload.Get and predictor.New, and a
	// nil obs observes nothing at zero cost.
	log         io.Writer                                      // WithLogger
	armTimeout  time.Duration                                  // WithArmTimeout
	checkpoint  *Checkpoint                                    // WithCheckpoint
	lookupFn    func(name string) (workload.Program, error)    // WithLookup
	predictorFn func(spec string) (predictor.Predictor, error) // WithPredictorFactory
	obs         *obs.Observer                                  // WithObserver

	// workers / wantOwnedReplay / ownedReplay implement WithWorkers: a
	// replay engine the harness creates and Close releases.
	workers         int
	wantOwnedReplay bool
	ownedReplay     bool

	// telemetry configures per-arm simulation-domain telemetry (interval
	// time-series, table samples, top-K); the zero config disables it. Each
	// uncached arm builds a fresh collector inside its recorder factory, so
	// replay retries never journal a partial stream's records.
	telemetry telemetry.Config

	logMu sync.Mutex
	// The memoized work.
	profiles flight[*profile.DB]
	hints    flight[*core.HintDB]
	runs     flight[sim.Metrics]
	// The stream passes behind profiles and runs, memoized apart from them:
	// a pass run on another arm's behalf is journaled, checkpointed and
	// counted only when an arm asks for its own key.
	biasPasses flight[*profile.DB] // bias profile per (workload, input)
	basePasses flight[*baseline]   // per (workload, input, canonical spec)

	profilesComputed atomic.Uint64
	runsComputed     atomic.Uint64
	checkpointHits   atomic.Uint64
}

// Stats is a snapshot of the harness's work counters. RunsComputed and
// ProfilesComputed count simulations actually executed (cache and checkpoint
// hits excluded); CheckpointHits counts arms satisfied from the journal. A
// clean resume of a finished sweep therefore shows zero computed and all
// hits.
type Stats struct {
	ProfilesComputed uint64
	RunsComputed     uint64
	CheckpointHits   uint64
}

// Stats returns the current work counters.
func (h *Harness) Stats() Stats {
	return Stats{
		ProfilesComputed: h.profilesComputed.Load(),
		RunsComputed:     h.runsComputed.Load(),
		CheckpointHits:   h.checkpointHits.Load(),
	}
}

// lookup resolves a workload name through the configured hook.
func (h *Harness) lookup(name string) (workload.Program, error) {
	if h.lookupFn != nil {
		return h.lookupFn(name)
	}
	return workload.Get(name)
}

// newPredictor builds a predictor through the configured hook.
func (h *Harness) newPredictor(spec string) (predictor.Predictor, error) {
	if h.predictorFn != nil {
		return h.predictorFn(spec)
	}
	return predictor.New(spec)
}

// feed drives one freshly built recorder with the branch stream of workload
// wl on input — through the replay engine's shared capture when one is
// attached, by direct execution otherwise. newRec must build the arm's
// recorder from scratch on every call (the engine re-invokes it when a
// shared capture fails mid-stream and the partial feed must be discarded);
// feed leaves the recorder of the final, successful attempt for the caller
// to read. span is the arm's lifecycle span: feed records on it how long
// the stream took and how it was fed — direct execution (PhaseSimulate),
// shared capture (PhaseCapture) or replay of one (PhaseReplay). When it
// traces, a capturing arm is noted in the cross-link registry under the
// capture key, and a replaying arm links the capturer's span — the shared
// work stays attributable from every consumer's trace.
func (h *Harness) feed(ctx context.Context, span *obs.Span, wl, input string, newRec func() (trace.Recorder, error)) error {
	prog, err := h.lookup(wl)
	if err != nil {
		return err
	}
	phase := obs.PhaseSimulate
	defer func(t0 time.Time) { span.AddPhase(phase, t0, time.Since(t0)) }(time.Now())
	if h.Replay == nil {
		rec, err := newRec()
		if err != nil {
			return err
		}
		return workload.RunProgram(ctx, prog, input, rec)
	}
	capKey := "cap|" + replay.Key(prog.Name(), input)
	produce := func(r trace.Recorder) error {
		// produce runs only on the capture goroutine this arm starts when
		// it is elected to record the shared stream, so the note names
		// this arm's span.
		h.obs.NoteSpanKey(capKey, span.Context())
		return workload.RunProgram(ctx, prog, input, r)
	}
	_, src, err := h.Replay.RunSourced(ctx, replay.Key(prog.Name(), input), produce, newRec)
	if src == replay.SourceCapture {
		phase = obs.PhaseCapture
		return err
	}
	phase = obs.PhaseReplay
	if sc, ok := h.obs.SpanForKey(capKey); ok {
		span.Link(sc, "capture")
	}
	return err
}

// linkFollower publishes a follower span for a singleflight-coalesced call:
// the wall time this caller spent blocked on (or recalling) the winner's
// work, cross-linked to the winner's span so a tenant's latency stays
// decomposable even when the work ran under another request's trace. No-op
// unless the observer traces.
func (h *Harness) linkFollower(ctx context.Context, start time.Time, name, key string, err error) {
	fs, _ := h.obs.StartSpan(ctx, name)
	if fs == nil {
		return
	}
	fs.SetStart(start)
	fs.SetKey(key)
	fs.SetSource(obs.SourceSingleflight)
	if sc, ok := h.obs.SpanForKey(key); ok {
		fs.Link(sc, "singleflight")
	}
	fs.End(err)
}

// countPanic bumps the observer's panic counter when err carries an
// isolated arm panic.
func (h *Harness) countPanic(err error) {
	var pe *workload.PanicError
	if errors.As(err, &pe) {
		h.obs.Counter(obs.MPanics).Add(1)
	}
}

// armCtx derives the context one uncached simulation runs under.
func (h *Harness) armCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if h.armTimeout > 0 {
		return context.WithTimeout(ctx, h.armTimeout)
	}
	return context.WithCancel(ctx)
}

// guard runs fn with panic isolation: a cooperative-cancellation Stop
// becomes its context error, any other panic becomes a *workload.PanicError
// with the panic-site stack. It is the harness's last line of defense for
// code that runs outside workload.RunProgram (predictor construction, hint
// selection, metric finalization).
func guard[T any](fn func() (T, error)) (val T, err error) {
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
	return fn()
}

// NewHarness returns a full-scale harness (ref/train inputs), configured by
// the given options.
func NewHarness(opts ...HarnessOption) *Harness {
	return (&Harness{RefInput: workload.InputRef, TrainInput: workload.InputTrain}).apply(opts)
}

// NewQuickHarness returns a reduced harness for tests and -short benches:
// measurements run on the train input, cross-training profiles on the test
// input. Shapes shrink but every code path is exercised.
func NewQuickHarness(opts ...HarnessOption) *Harness {
	return (&Harness{RefInput: workload.InputTrain, TrainInput: workload.InputTest}).apply(opts)
}

func (h *Harness) logf(format string, args ...any) {
	if h.log != nil {
		h.logMu.Lock()
		fmt.Fprintf(h.log, format+"\n", args...)
		h.logMu.Unlock()
	}
}

// Profile returns the memoized phase-1 profile of predSpec over wl/input.
// An empty predSpec collects a bias-only profile. A predictor's profile is
// the bias profile annotated from the predictor's baseline pass (the "none"
// arm's simulation, shared with Run), so no pass of its own simulates the
// predictor. The passes run under ctx (plus the per-arm deadline, if
// configured); failures are reported as *ArmError and are not memoized, so
// a later call computes afresh.
func (h *Harness) Profile(ctx context.Context, wl, input, predSpec string) (*profile.DB, error) {
	spec := predictor.Canonical(predSpec)
	key := "p|" + wl + "|" + input + "|" + spec
	var span *obs.Span
	started := time.Now()
	db, shared, err := h.profiles.doShared(ctx, key, func() (*profile.DB, error) {
		// The span is created inside the singleflight fn — it runs in the
		// winning caller's goroutine — so one arm gets exactly one span no
		// matter how many callers coalesce onto it. StartArmCtx threads the
		// winner's trace context down to nested work.
		span, ctx = h.obs.StartArmCtx(ctx, "profile", key)
		span.SetLabels(wl, input, spec, "")
		if h.checkpoint != nil {
			endCk := span.Phase(obs.PhaseCheckpoint)
			db, ok := h.checkpoint.LookupProfile(key)
			endCk()
			if ok {
				h.checkpointHits.Add(1)
				h.obs.Counter(obs.MCheckpointHits).Add(1)
				span.SetSource(obs.SourceCheckpoint)
				span.SetEvents(db.DynamicBranches())
				h.logf("profile %-8s %-5s %-14s (checkpoint)", wl, input, spec)
				return db, nil
			}
		}
		armCtx, cancel := h.armCtx(ctx)
		defer cancel()
		h.logf("profile %-8s %-5s %s", wl, input, spec)
		db, err := h.biasPass(armCtx, span, wl, input)
		if err == nil && predSpec != "" {
			var b *baseline
			if b, err = h.baselinePass(armCtx, span, Arm{Workload: wl, Input: input, Pred: predSpec}); err == nil {
				db = db.Annotate(b.misses, b.dyn)
			}
		}
		if err != nil {
			return nil, err
		}
		h.profilesComputed.Add(1)
		if h.checkpoint != nil {
			endCk := span.Phase(obs.PhaseCheckpoint)
			if err := h.checkpoint.SaveProfile(key, db); err != nil {
				h.logf("checkpoint: %v", err)
			}
			endCk()
		}
		span.SetEvents(db.DynamicBranches())
		return db, nil
	})
	if shared {
		h.obs.Counter(obs.MSingleflightHits).Add(1)
		h.linkFollower(ctx, started, "profile:wait", key, err)
	} else {
		h.countPanic(err)
		span.End(err)
	}
	return db, armError("profile", key, err)
}

// biasOnly is the recorder of a bias-only profile: it counts each branch's
// executions and taken outcomes, and the stream's instructions. It takes
// events one at a time (direct execution) or in blocks (the replay engine).
type biasOnly struct {
	db    *profile.DB
	instr uint64
}

func (b *biasOnly) Branch(pc uint64, taken bool) {
	b.instr++
	b.db.Record(pc, taken)
}

func (b *biasOnly) Ops(n uint64) { b.instr += n }

// RunBlock implements trace.BlockSink.
func (b *biasOnly) RunBlock(pcs []uint64, taken []bool, ops []uint64) {
	for _, n := range ops[:len(pcs)] {
		b.instr += n + 1
	}
	b.db.RecordBlock(pcs, taken, nil, nil)
}

// baseline is one pass of a dynamic predictor with no hints over one
// stream: the "none" arm's metrics, and the misses that annotate the
// stream's bias profile into the predictor's phase-1 profile.
type baseline struct {
	m      sim.Metrics
	misses *profile.Misses
	dyn    string // the bare predictor's name, the profile's Predictor
}

// pass runs (or recalls) one memoized stream pass on f under key. The
// caller that computes it records the stream phases on its span. A waiter
// whose own context is live retries a pass that failed because the
// computing caller's context ended: that failure was not the waiter's.
func pass[T any](f *flight[T], ctx context.Context, key string, run func() (T, error)) (T, error) {
	for {
		v, shared, err := f.doShared(ctx, key, func() (T, error) { return guard(run) })
		if shared && ctx.Err() == nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			continue
		}
		return v, err
	}
}

// biasPass returns the bias-only profile of wl on input.
func (h *Harness) biasPass(ctx context.Context, span *obs.Span, wl, input string) (*profile.DB, error) {
	return pass(&h.biasPasses, ctx, wl+"|"+input, func() (*profile.DB, error) {
		// The recorder (and the profile DB it fills) is rebuilt inside the
		// factory: a replay retry must not accumulate into a DB that
		// already saw a partial stream.
		var rec *biasOnly
		err := h.feed(ctx, span, wl, input, func() (trace.Recorder, error) {
			rec = &biasOnly{db: profile.NewDB(wl, input)}
			return rec, nil
		})
		if err != nil {
			return nil, err
		}
		rec.db.Instructions = rec.instr
		return rec.db, nil
	})
}

// baselinePass returns the baseline pass of a's predictor over its
// workload and input: the "none" arm's simulation, which also records the
// predictor's misses for its phase-1 profile.
func (h *Harness) baselinePass(ctx context.Context, span *obs.Span, a Arm) (*baseline, error) {
	key := a.Workload + "|" + a.input(h) + "|" + predictor.Canonical(a.Pred)
	return pass(&h.basePasses, ctx, key, func() (*baseline, error) {
		b := &baseline{misses: new(profile.Misses)}
		var err error
		b.m, b.dyn, err = h.simulate(ctx, span, a, nil, b.misses)
		return b, err
	})
}

// simulate runs a's predictor behind hints under a's shift policy over its
// workload and input, with collisions, observer and telemetry, and returns
// the metrics and the bare predictor's name. A non-nil misses also records
// the predictor's misses.
func (h *Harness) simulate(ctx context.Context, span *obs.Span, a Arm, hints *core.HintDB, misses *profile.Misses) (sim.Metrics, string, error) {
	var (
		r   *sim.Runner
		dyn predictor.Predictor
	)
	input := a.input(h)
	// The predictor stack is rebuilt inside the factory so a replay retry
	// starts from pristine tables.
	err := h.feed(ctx, span, a.Workload, input, func() (trace.Recorder, error) {
		var err error
		if dyn, err = h.newPredictor(a.Pred); err != nil {
			return nil, err
		}
		if misses != nil {
			*misses = profile.Misses{}
		}
		r = sim.NewRunner(core.NewCombined(dyn, hints, a.Shift), sim.WithLabels(a.Workload, input), sim.WithCollisions(),
			sim.WithMisses(misses), sim.WithObserver(h.obs), sim.WithTelemetry(telemetry.New(h.telemetry, h.obs)))
		return r, nil
	})
	if err != nil {
		return sim.Metrics{}, "", err
	}
	defer span.Phase(obs.PhaseSeal)()
	return r.Metrics(), dyn.Name(), nil
}

// Arm describes one measured configuration.
type Arm struct {
	Workload string
	Input    string // measurement input; empty = harness RefInput
	Pred     string // predictor spec
	Scheme   string // "none", "static95", "staticacc", "staticfac", "staticcol", ...
	// ProfileInput is where hints are profiled; empty = self-trained
	// (same as measurement input).
	ProfileInput string
	// FilterDrift, when > 0 with cross-training, removes branches whose
	// bias drifts more than this between ProfileInput and the measurement
	// input before selecting hints (the paper's merged-profile filter).
	FilterDrift float64
	Shift       core.ShiftPolicy
}

func (a Arm) key() string {
	return fmt.Sprintf("r|%s|%s|%s|%s|%s|%g|%d", a.Workload, a.Input, predictor.Canonical(a.Pred), a.Scheme, a.ProfileInput, a.FilterDrift, a.Shift)
}

// schemeLabel is the scheme for journal records: "none" when unset.
func (a Arm) schemeLabel() string {
	if a.Scheme == "" {
		return "none"
	}
	return a.Scheme
}

// Hints returns the memoized hint set for an arm ("none" → nil).
func (h *Harness) Hints(ctx context.Context, a Arm) (*core.HintDB, error) {
	if a.Scheme == "" || a.Scheme == "none" {
		return nil, nil
	}
	profInput := a.ProfileInput
	if profInput == "" {
		profInput = a.input(h)
	}
	key := fmt.Sprintf("h|%s|%s|%s|%s|%g|%s", a.Workload, profInput, predictor.Canonical(a.Pred), a.Scheme, a.FilterDrift, a.input(h))
	hd, err := h.hints.do(ctx, key, func() (*core.HintDB, error) {
		return guard(func() (*core.HintDB, error) {
			sel, err := core.SelectorByName(a.Scheme)
			if err != nil {
				return nil, err
			}
			// Static95 needs only bias; the others need the predictor's
			// per-branch accuracy profile.
			predSpec := a.Pred
			if _, ok := sel.(core.Static95); ok {
				predSpec = ""
			}
			db, err := h.Profile(ctx, a.Workload, profInput, predSpec)
			if err != nil {
				return nil, err
			}
			if a.FilterDrift > 0 && profInput != a.input(h) {
				// Spike-style profile maintenance: drop unstable branches
				// using the measurement input's bias profile.
				refDB, err := h.Profile(ctx, a.Workload, a.input(h), "")
				if err != nil {
					return nil, err
				}
				db = db.Clone()
				db.RemoveUnstable(refDB, a.FilterDrift)
			}
			return sel.Select(db)
		})
	})
	return hd, armError("hints", key, err)
}

func (a Arm) input(h *Harness) string {
	if a.Input != "" {
		return a.Input
	}
	return h.RefInput
}

// Run executes (or recalls) one arm and returns its metrics. Collision
// tracking is always on. The simulation runs under ctx plus the per-arm
// deadline; failures are reported as *ArmError and not memoized.
func (h *Harness) Run(ctx context.Context, a Arm) (sim.Metrics, error) {
	m, _, err := h.RunAttributed(ctx, a)
	return m, err
}

// RunAttributed is Run plus result attribution: the second return value
// says where the metrics came from — obs.SourceComputed (simulated here),
// obs.SourceCheckpoint (recalled from disk) or obs.SourceSingleflight
// (coalesced onto another caller's in-flight or memoized arm). The serve
// daemon uses it to count per-tenant capture-cache savings.
func (h *Harness) RunAttributed(ctx context.Context, a Arm) (sim.Metrics, string, error) {
	spec := predictor.Canonical(a.Pred)
	key := a.key() + "|" + a.input(h)
	var span *obs.Span
	started := time.Now()
	src := obs.SourceComputed
	m, shared, err := h.runs.doShared(ctx, key, func() (sim.Metrics, error) {
		span, ctx = h.obs.StartArmCtx(ctx, "run", key)
		span.SetLabels(a.Workload, a.input(h), spec, a.schemeLabel())
		if h.checkpoint != nil {
			endCk := span.Phase(obs.PhaseCheckpoint)
			m, ok := h.checkpoint.LookupRun(key)
			endCk()
			if ok {
				h.checkpointHits.Add(1)
				h.obs.Counter(obs.MCheckpointHits).Add(1)
				src = obs.SourceCheckpoint
				span.SetSource(obs.SourceCheckpoint)
				span.SetEvents(m.Branches)
				span.SetMetrics(m)
				h.logf("run     %-8s %-5s %-14s %-10s (checkpoint)", a.Workload, a.input(h), spec, a.schemeLabel())
				return m, nil
			}
		}
		armCtx, cancel := h.armCtx(ctx)
		defer cancel()
		m, err := guard(func() (sim.Metrics, error) {
			// Hints are memoized and effectively read-only, so they are
			// resolved once. The select phase covers hint resolution,
			// including any nested profile arms it triggers (those get
			// their own spans too).
			endSel := span.Phase(obs.PhaseSelect)
			hints, err := h.Hints(armCtx, a)
			endSel()
			if err != nil {
				return sim.Metrics{}, err
			}
			input := a.input(h)
			h.logf("run     %-8s %-5s %-14s %-10s shift=%v prof=%s", a.Workload, input, spec, a.schemeLabel(), a.Shift, a.ProfileInput)
			if hints == nil && a.Shift == core.NoShift {
				// No hints, history untouched: the predictor's baseline
				// pass, which its phase-1 profile shares.
				b, err := h.baselinePass(armCtx, span, a)
				if err != nil {
					return sim.Metrics{}, err
				}
				return b.m, nil
			}
			m, _, err := h.simulate(armCtx, span, a, hints, nil)
			return m, err
		})
		if err != nil {
			return sim.Metrics{}, err
		}
		h.runsComputed.Add(1)
		if h.checkpoint != nil {
			endCk := span.Phase(obs.PhaseCheckpoint)
			if err := h.checkpoint.SaveRun(key, m); err != nil {
				h.logf("checkpoint: %v", err)
			}
			endCk()
		}
		span.SetEvents(m.Branches)
		span.SetMetrics(m)
		return m, nil
	})
	if shared {
		src = obs.SourceSingleflight
		h.obs.Counter(obs.MSingleflightHits).Add(1)
		h.linkFollower(ctx, started, "run:wait", key, err)
	} else {
		h.countPanic(err)
		span.End(err)
	}
	return m, src, armError("run", key, err)
}

// Improvement returns the relative MISP/KI improvement of arm over the
// matching no-static baseline (positive = fewer mispredictions), the paper's
// Tables 3 and 4 metric.
func (h *Harness) Improvement(ctx context.Context, a Arm) (float64, error) {
	base := a
	base.Scheme = "none"
	base.Shift = core.NoShift
	base.ProfileInput = ""
	base.FilterDrift = 0
	mb, err := h.Run(ctx, base)
	if err != nil {
		return 0, err
	}
	ma, err := h.Run(ctx, a)
	if err != nil {
		return 0, err
	}
	if mb.MISPKI() == 0 {
		return 0, nil
	}
	return 1 - ma.MISPKI()/mb.MISPKI(), nil
}

// Result is one experiment's rendered output.
type Result struct {
	ID     string
	Title  string
	Tables []*report.Table
}

// An Experiment regenerates one table or figure of the paper. Run executes
// under ctx: cancelling it stops the experiment's arms cooperatively.
type Experiment struct {
	ID          string
	Title       string
	Paper       string // which paper artifact it reproduces, e.g. "Table 3"
	Description string
	Run         func(ctx context.Context, h *Harness) (*Result, error)
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// paperOrder lists experiments the way the paper presents its results;
// ablations follow. Unlisted experiments (if any are added) sort last in
// registration order.
var paperOrder = []string{
	"table1", "table2",
	"fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
	"fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
	"table3", "table4", "table5", "fig13",
	"abl-cutoff", "abl-shift", "abl-agree", "abl-staticcol", "abl-zoo", "abl-history", "abl-modern", "abl-pipeline", "abl-extra",
	"conf-grid",
	"smoke",
}

// All returns the registered experiments in paper order.
func All() []Experiment {
	rank := map[string]int{}
	for i, id := range paperOrder {
		rank[id] = i
	}
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.SliceStable(out, func(i, j int) bool {
		ri, iok := rank[out[i].ID]
		rj, jok := rank[out[j].ID]
		switch {
		case iok && jok:
			return ri < rj
		case iok:
			return true
		default:
			return false
		}
	})
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, 0, len(registry))
	for _, e := range registry {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("experiment: unknown id %q (known: %v)", id, ids)
}
