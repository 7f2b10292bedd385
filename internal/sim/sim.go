// Package sim drives a predictor over a dynamic branch stream and
// accumulates the paper's metrics: mispredictions per thousand instructions
// (MISPs/KI), prediction accuracy, and collision counts split into
// constructive and destructive.
//
// The Runner is a trace.Recorder, so anything that produces a branch stream
// — an instrumented workload, a trace file replay, a synthetic generator —
// can feed it directly, with no intermediate buffering.
package sim

import (
	"context"
	"fmt"
	"strings"

	"branchsim/internal/obs"
	"branchsim/internal/predictor"
	"branchsim/internal/profile"
	"branchsim/internal/telemetry"
	"branchsim/internal/trace"
)

// Collisions counts predictor-table aliasing events, classified the way the
// paper does: a collision is a lookup whose counter was last used by a
// different branch; it is constructive when the final prediction was
// nevertheless correct, destructive when it was wrong.
type Collisions struct {
	Total        uint64
	Constructive uint64
	Destructive  uint64
}

// Metrics is the result of one simulation run.
type Metrics struct {
	Predictor string
	Workload  string
	Input     string

	trace.Counts
	Mispredicts uint64

	// Collisions is populated only when the predictor supports tracking
	// and the Runner was built with WithCollisions.
	Collisions        Collisions
	CollisionsTracked bool
}

// MISPKI returns mispredictions per thousand instructions, the paper's
// primary metric (it argues MISPs/KI beats raw accuracy because it weights
// programs by branch density).
func (m *Metrics) MISPKI() float64 {
	if m.Instructions == 0 {
		return 0
	}
	return 1000 * float64(m.Mispredicts) / float64(m.Instructions)
}

// Accuracy returns the fraction of branches predicted correctly.
func (m *Metrics) Accuracy() float64 {
	if m.Branches == 0 {
		return 0
	}
	return 1 - float64(m.Mispredicts)/float64(m.Branches)
}

// Diff describes every field in which o differs from m, one "field: got …,
// want …" clause per difference, or "" when the metrics are identical. It
// exists for equivalence tests, where a bare != on the struct says nothing
// about which of the counters diverged.
func (m Metrics) Diff(o Metrics) string {
	var parts []string
	add := func(field string, got, want any) {
		if got != want {
			parts = append(parts, fmt.Sprintf("%s: got %v, want %v", field, got, want))
		}
	}
	add("predictor", o.Predictor, m.Predictor)
	add("workload", o.Workload, m.Workload)
	add("input", o.Input, m.Input)
	add("instructions", o.Instructions, m.Instructions)
	add("branches", o.Branches, m.Branches)
	add("taken", o.TakenCount, m.TakenCount)
	add("mispredicts", o.Mispredicts, m.Mispredicts)
	add("collisionsTracked", o.CollisionsTracked, m.CollisionsTracked)
	add("collisions.total", o.Collisions.Total, m.Collisions.Total)
	add("collisions.constructive", o.Collisions.Constructive, m.Collisions.Constructive)
	add("collisions.destructive", o.Collisions.Destructive, m.Collisions.Destructive)
	return strings.Join(parts, "; ")
}

// String summarizes the run.
func (m *Metrics) String() string {
	s := fmt.Sprintf("%s on %s/%s: %.3f MISP/KI (acc %.2f%%, %d br, %d instr)",
		m.Predictor, m.Workload, m.Input, m.MISPKI(), 100*m.Accuracy(), m.Branches, m.Instructions)
	if m.CollisionsTracked {
		s += fmt.Sprintf(", collisions %d (%d constructive, %d destructive)",
			m.Collisions.Total, m.Collisions.Constructive, m.Collisions.Destructive)
	}
	return s
}

// Runner feeds a predictor from a branch stream. It implements
// trace.Recorder.
type Runner struct {
	p       predictor.Predictor
	col     predictor.Collider
	prof    *profile.DB
	miss    *profile.Misses
	ctx     context.Context
	events  uint64
	metrics Metrics

	// Observability (nil when disabled). Updates are batched: the event
	// loop accumulates into the local counters above and flushes deltas at
	// the cancelEvery cadence, so an attached observer costs two atomic
	// adds per 16k branches and a detached one costs nothing.
	obsEvents   *obs.Counter
	obsMisp     *obs.Counter
	flushedEv   uint64
	flushedMisp uint64

	// tel is the simulation-domain telemetry collector (nil when disabled:
	// one nil check per branch). Bound to this runner's labels and predictor
	// by NewRunner; finished — final interval sealed, records journaled — by
	// the first Metrics call.
	tel *telemetry.Collector

	// ce grades predictions (nil unless the predictor implements
	// ConfidenceEstimator and a profile, a miss record or confidence
	// telemetry wants the grades). It is read once per event and the grade
	// handed to each: low-confidence executions per branch feed the
	// confidence-based static filter.
	ce predictor.ConfidenceEstimator

	// kern is the predictor's native batch kernel (nil when it has none);
	// RunBlock routes whole decoded blocks through it instead of the
	// per-event Predict/Update protocol. The scratch slices back the
	// kernel's per-event outputs when telemetry or profiling needs them.
	kern            predictor.BatchSim
	scratchCorrect  []bool
	scratchCollided []bool
}

// cancelEvery is the branch cadence of the Runner's own context check, used
// when the stream producer (a trace replay, a custom generator) has no
// instrumentation context of its own.
const cancelEvery = 16384

// Option configures a Runner.
type Option func(*Runner)

// WithCollisions enables collision tracking when the predictor supports it.
func WithCollisions() Option {
	return func(r *Runner) {
		if c, ok := r.p.(predictor.Collider); ok {
			c.EnableCollisionTracking()
			r.col = c
			r.metrics.CollisionsTracked = true
		}
	}
}

// WithProfile collects per-branch statistics into db during the run — the
// paper's phase-1 profiling. Per-branch accuracy (and destructive-collision
// counts, if tracking is on) refer to the Runner's predictor, so db.Predictor
// is set to its name.
func WithProfile(db *profile.DB) Option {
	return func(r *Runner) {
		r.prof = db
		db.Predictor = r.p.Name()
	}
}

// WithMisses records into m the run's mispredicted, destructively colliding
// and low-confidence executions per branch: with a bias profile of the same
// stream, what WithProfile would collect (profile.DB.Annotate joins them).
// Its cost grows with the mispredictions, not with the branches.
func WithMisses(m *profile.Misses) Option {
	return func(r *Runner) { r.miss = m }
}

// WithContext arms cooperative cancellation inside the Runner's event loop:
// once ctx is done, the next periodic check unwinds the stream with a
// trace.Stop panic, which the run wrappers (workload.RunProgram,
// trace.Reader.Replay) recover and return as ctx's error. Use it when the
// producer feeding the Runner does not check a context itself.
func WithContext(ctx context.Context) Option {
	return func(r *Runner) {
		if ctx != nil && ctx.Done() != nil {
			r.ctx = ctx
		}
	}
}

// WithObserver publishes the runner's throughput to o's registry: dynamic
// branch events under obs.MSimEvents and mispredictions under
// obs.MSimMispredicts. Counts flow in batched deltas (every cancelEvery
// events and at Metrics time), so live readers — the progress reporter, the
// /debug/vars endpoint — see events/sec without the per-branch path ever
// touching an atomic. A nil observer leaves the runner unobserved.
func WithObserver(o *obs.Observer) Option {
	return func(r *Runner) {
		if o != nil {
			r.obsEvents = o.Counter(obs.MSimEvents)
			r.obsMisp = o.Counter(obs.MSimMispredicts)
		}
	}
}

// WithTelemetry attaches a simulation-domain telemetry collector: interval
// time-series, predictor-table samples and per-branch statistics, per
// telemetry.Config. The collector must be fresh (one collector per runner);
// NewRunner binds it to the runner's labels and predictor, and the runner's
// first Metrics call finishes it, flushing its records to the observer it
// was built with. A nil collector — what telemetry.New returns for a
// disabled config — leaves the runner untelemetered.
func WithTelemetry(tel *telemetry.Collector) Option {
	return func(r *Runner) { r.tel = tel }
}

// WithLabels sets the workload/input labels recorded in the metrics.
func WithLabels(workload, input string) Option {
	return func(r *Runner) {
		r.metrics.Workload = workload
		r.metrics.Input = input
	}
}

// NewRunner builds a Runner around p.
func NewRunner(p predictor.Predictor, opts ...Option) *Runner {
	r := &Runner{p: p}
	r.metrics.Predictor = p.Name()
	for _, o := range opts {
		o(r)
	}
	// Bind after the option loop so the collector sees the final labels and
	// the collision-tracking decision, whatever order the options came in.
	r.tel.Bind(p, r.metrics.Workload, r.metrics.Input, r.metrics.Predictor, r.metrics.CollisionsTracked)
	if r.prof != nil || r.miss != nil || r.tel.ConfidenceSampling() {
		if ce, ok := predictor.ConfidenceEstimatorOf(p); ok {
			r.ce = ce
		}
	}
	if k, native := predictor.Batch(p); native {
		r.kern = k
	}
	return r
}

// BatchKernel reports whether the runner's predictor has a native batch
// kernel, i.e. whether RunBlock actually batches. The facade uses it to
// decide if a direct run is worth feeding through a trace.Batcher.
func (r *Runner) BatchKernel() bool { return r.kern != nil }

// Branch implements trace.Recorder: predict, score, classify, train.
func (r *Runner) Branch(pc uint64, taken bool) {
	pred := r.p.Predict(pc)
	correct := pred == taken
	if !correct {
		r.metrics.Mispredicts++
	}
	collided := r.col != nil && r.col.LastCollision()
	destructive := false
	if collided {
		r.metrics.Collisions.Total++
		if correct {
			r.metrics.Collisions.Constructive++
		} else {
			r.metrics.Collisions.Destructive++
			destructive = true
		}
	}
	var conf predictor.Confidence
	if r.ce != nil {
		conf = r.ce.LastConfidence()
	}
	if r.prof != nil {
		r.prof.RecordPredicted(pc, taken, correct)
		if destructive {
			r.prof.RecordDestructiveCollision(pc)
		}
		if conf.Low {
			r.prof.RecordLowConfidence(pc)
		}
	}
	if r.miss != nil && (!correct || conf.Low) {
		r.miss.Record(pc, correct, destructive, conf.Low)
	}
	r.p.Update(pc, taken)
	r.metrics.Counts.Branch(pc, taken)
	if r.tel != nil {
		// After Update, so an interval boundary here introspects tables that
		// already absorbed this branch's training.
		r.tel.Branch(pc, taken, correct, collided, conf)
	}
	if r.events++; r.events%cancelEvery == 0 {
		if r.obsEvents != nil {
			r.flushObs()
		}
		if r.ctx != nil {
			if err := r.ctx.Err(); err != nil {
				panic(trace.Stop{Err: err})
			}
		}
	}
}

// RunBlock implements trace.BlockSink: the batched equivalent of calling
// Ops(ops[i]) then Branch(pcs[i], taken[i]) per event. When the predictor
// has a native kernel the block runs devirtualized and the metrics are
// folded in wholesale; the profile and the miss record are then fed from
// the kernel's per-event outputs, and a telemetry collector segment by
// segment, each segment cut where the collector seals, so that every
// table sample sees the predictor exactly as the events sealed so far
// left it. Two cases fall back to the per-event loop, which is
// bit-identical by construction: a predictor without a kernel, and a
// predictor graded per prediction (LastConfidence reports only the most
// recent Predict, so the kernel may not run ahead of the grader).
func (r *Runner) RunBlock(pcs []uint64, taken []bool, ops []uint64) {
	var opsSum uint64
	for _, o := range ops[:len(pcs)] {
		opsSum += o
	}
	r.RunBlockSummed(pcs, taken, ops, opsSum)
}

// RunBlockSummed implements trace.SummedBlockSink: RunBlock for feeders that
// already hold the block's straight-line instruction total (the engine's
// decoded chunks carry it, summed at capture), sparing the per-block
// summing pass.
func (r *Runner) RunBlockSummed(pcs []uint64, taken []bool, ops []uint64, opsSum uint64) {
	if len(pcs) == 0 {
		return
	}
	if r.kern == nil || r.ce != nil {
		for i, pc := range pcs {
			if ops[i] != 0 {
				r.Ops(ops[i])
			}
			r.Branch(pc, taken[i])
		}
		return
	}
	n := len(pcs)
	var correct, collided []bool
	if r.tel != nil || r.prof != nil || r.miss != nil {
		if cap(r.scratchCorrect) < n {
			r.scratchCorrect = make([]bool, n)
			r.scratchCollided = make([]bool, n)
		}
		correct, collided = r.scratchCorrect[:n], r.scratchCollided[:n]
	}
	// The kernel reports raw tag collisions; they count only when this
	// runner tracks collisions, mirroring the scalar gate on r.col.
	tracked := r.col != nil
	ops = ops[:n]
	var bm predictor.BlockMetrics // one segment's scores
	for lo := 0; lo < n; {
		// The segment's first straight-line run may seal, with the state
		// after the previous segment; Cut stops the segment before any
		// later one that would.
		if ops[lo] != 0 && r.tel != nil {
			r.tel.Ops(ops[lo])
		}
		k, straight := r.tel.Cut(ops[lo:])
		hi := lo + k
		bm = predictor.BlockMetrics{}
		if correct != nil {
			bm.Correct, bm.Collided = correct[lo:hi], collided[lo:hi]
		}
		r.kern.RunBlock(pcs[lo:hi], taken[lo:hi], &bm)
		r.tel.Block(pcs[lo:hi], taken[lo:hi], straight, &bm)
		r.metrics.Mispredicts += bm.Mispredicts
		r.metrics.TakenCount += bm.TakenCount
		if tracked {
			r.metrics.Collisions.Total += bm.Collisions
			r.metrics.Collisions.Constructive += bm.Constructive
			r.metrics.Collisions.Destructive += bm.Destructive
		}
		lo = hi
	}
	r.metrics.Instructions += opsSum + uint64(n)
	r.metrics.Branches += uint64(n)

	if !tracked {
		collided = nil // collisions count only when tracked
	}
	if r.prof != nil {
		r.prof.RecordBlock(pcs, taken, correct, collided)
	}
	if r.miss != nil {
		r.miss.RecordBlock(pcs, correct, collided)
	}

	// Preserve the observer-flush and cancellation cadence at block
	// granularity: fire once whenever the block crossed a cancelEvery
	// multiple, as the per-event loop would have.
	before := r.events
	r.events += uint64(n)
	if before/cancelEvery != r.events/cancelEvery {
		if r.obsEvents != nil {
			r.flushObs()
		}
		if r.ctx != nil {
			if err := r.ctx.Err(); err != nil {
				panic(trace.Stop{Err: err})
			}
		}
	}
}

// flushObs publishes the event/mispredict deltas accumulated since the last
// flush. Delta-based, so it is safe to call at any cadence and again from
// Metrics.
func (r *Runner) flushObs() {
	r.obsEvents.Add(r.events - r.flushedEv)
	r.obsMisp.Add(r.metrics.Mispredicts - r.flushedMisp)
	r.flushedEv, r.flushedMisp = r.events, r.metrics.Mispredicts
}

// Ops implements trace.Recorder.
func (r *Runner) Ops(n uint64) {
	r.metrics.Counts.Ops(n)
	if r.tel != nil {
		r.tel.Ops(n)
	}
}

// Metrics returns a snapshot of the accumulated results. When profiling is
// enabled it also stamps the profile database with the instruction total.
func (r *Runner) Metrics() Metrics {
	if r.prof != nil {
		r.prof.Instructions = r.metrics.Instructions
	}
	if r.obsEvents != nil {
		r.flushObs()
	}
	// Finish telemetry: seal the final partial interval and journal the
	// buffered records. Idempotent, so repeated Metrics calls are fine.
	r.tel.Finish()
	return r.metrics
}

// Predictor returns the predictor under test.
func (r *Runner) Predictor() predictor.Predictor { return r.p }
