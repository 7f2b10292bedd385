package obs

import (
	"context"
	"encoding/json"
	"time"
)

// Phase names one stage of an arm's lifecycle. The stream-feeding stage is
// recorded under the name that says where the branch events actually came
// from: "capture" (this arm executed the instrumented workload and recorded
// it), "replay" (fed from a shared capture) or "simulate" (direct execution,
// no replay engine attached).
type Phase string

// Arm lifecycle phases.
const (
	PhaseCapture    Phase = "capture"
	PhaseReplay     Phase = "replay"
	PhaseSimulate   Phase = "simulate"
	PhaseSelect     Phase = "select"
	PhaseCheckpoint Phase = "checkpoint"
	// PhaseSeal is the telemetry-seal stage: stamping final metrics and
	// flushing the arm's telemetry records.
	PhaseSeal Phase = "seal"
	// PhaseQueue is a serve-side trace phase: how long an admitted arm
	// waited for a worker slot. Trace spans only — it never appears in
	// ArmRecord.Phases.
	PhaseQueue Phase = "queue_wait"
)

// Arm-record Source values: where the arm's result came from.
const (
	SourceComputed     = "computed"     // simulated in this process
	SourceCheckpoint   = "checkpoint"   // recalled from the on-disk journal
	SourceSingleflight = "singleflight" // coalesced onto another arm's work
)

// PhaseTiming is one phase's wall time inside an arm record.
type PhaseTiming struct {
	Phase Phase `json:"phase"`
	Nanos int64 `json:"ns"`
}

// ArmRecord is the journal's unit: one completed arm of a sweep. Records are
// written as JSON Lines — one object per line — so journals stream, append
// across resumed runs, and grep cleanly.
type ArmRecord struct {
	// Type and V are the record envelope: RecArm and the schema version,
	// stamped on write. Absent on journals from before the telemetry schema.
	Type string `json:"type,omitempty"`
	V    int    `json:"v,omitempty"`

	// Time is when the arm finished, RFC 3339 with nanoseconds.
	Time time.Time `json:"time"`
	// Kind is the harness stage: "profile", "run" or "simulate" (facade).
	Kind string `json:"kind"`
	// Key is the arm's memoization key — the same string the singleflight
	// cache and the checkpoint journal use.
	Key string `json:"key"`

	Workload  string `json:"workload,omitempty"`
	Input     string `json:"input,omitempty"`
	Predictor string `json:"predictor,omitempty"` // canonical spec string
	Scheme    string `json:"scheme,omitempty"`

	// Source says where the result came from: computed, checkpoint or
	// singleflight.
	Source string `json:"source"`
	// Phases are the wall times of the arm's lifecycle stages, in the order
	// they ran.
	Phases []PhaseTiming `json:"phases,omitempty"`
	// Faults counts injected faults that fired during the arm (fault-test
	// pipelines only; approximate when arms overlap, exact when serial).
	Faults uint64 `json:"faults,omitempty"`

	// Events is the arm's dynamic branch count.
	Events uint64 `json:"events,omitempty"`
	// WallNanos is the arm's total wall time.
	WallNanos int64 `json:"wall_ns"`
	// EventsPerSec is Events divided by the stream phase's wall time (the
	// capture/replay/simulate stage), the arm's simulation throughput.
	EventsPerSec float64 `json:"events_per_sec,omitempty"`

	// Metrics is the arm's final sim.Metrics, verbatim. It is kept as raw
	// JSON here so this package stays import-free of the simulator; decode
	// it into sim.Metrics to compare runs.
	Metrics json.RawMessage `json:"metrics,omitempty"`
	// Error is the arm's failure, if it had one.
	Error string `json:"error,omitempty"`
}

// Span is one timed operation while it runs: an arm of a sweep (StartArm,
// StartArmCtx) or a node of a request trace (StartSpan). An arm span also
// carries the arm's journal fields. Phases are recorded once, by AddPhase;
// End derives every view of them: the arm's ArmRecord.Phases, the
// per-phase duration histograms and, when the observer traces, the live
// {type:"span"} frame. A span belongs to the single goroutine executing its
// operation; it is not safe for concurrent use. A nil *Span is a no-op.
type Span struct {
	o      *Observer
	start  time.Time
	phases []SpanPhase
	// frame is the span's live trace record, published by End only when
	// traced. The ArmRecord never carries trace fields, so journal bytes are
	// identical with tracing on or off.
	frame  SpanRecord
	traced bool
	// arm marks an arm span: End journals rec, counting the faults injected
	// since faults0.
	arm     bool
	rec     ArmRecord
	faults0 uint64
}

// StartArm opens a span for one arm. kind is the harness stage ("profile",
// "run", "simulate"); key is the arm's memoization key.
func (o *Observer) StartArm(kind, key string) *Span {
	s, _ := o.StartArmCtx(context.Background(), kind, key)
	return s
}

// StartArmCtx is StartArm with trace propagation: when the observer traces,
// the arm span is also a trace span, a child of the span carried by ctx,
// and the returned context carries it (so nested work — the shared capture
// — attributes to it). The arm's span context is noted under key in the
// cross-link registry so singleflight followers can link the winner.
func (o *Observer) StartArmCtx(ctx context.Context, kind, key string) (*Span, context.Context) {
	if o == nil {
		return nil, ctx
	}
	o.Counter(MArmsStarted).Add(1)
	o.Gauge(MArmsRunning).Add(1)
	o.Publish(&ArmStartRecord{Time: time.Now(), Kind: kind, Key: key})
	s := &Span{
		o:       o,
		start:   time.Now(),
		arm:     true,
		rec:     ArmRecord{Kind: kind, Key: key, Source: SourceComputed},
		faults0: o.Counter(MFaultsInjected).Value(),
	}
	if o.tracing {
		ctx = s.trace(ctx, kind)
		s.frame.Key = key
		o.NoteSpanKey(key, s.Context())
	}
	return s, ctx
}

// StartSpan opens a trace span named name as a child of the span carried by
// ctx (a root span if ctx carries none) and returns it together with a
// context carrying the new span. On a nil observer — or one built without
// WithTracing — it returns (nil, ctx) unchanged, so the disabled path costs
// one branch and no allocation.
func (o *Observer) StartSpan(ctx context.Context, name string) (*Span, context.Context) {
	if o == nil || !o.tracing {
		return nil, ctx
	}
	s := &Span{o: o, start: time.Now()}
	return s, s.trace(ctx, name)
}

// trace makes s a node of the trace carried by ctx (the root of a new one
// when ctx carries none) and returns ctx carrying s.
func (s *Span) trace(ctx context.Context, name string) context.Context {
	s.traced = true
	s.frame.SpanID, s.frame.Name = newID(), name
	if parent, ok := SpanFromContext(ctx); ok {
		s.frame.TraceID, s.frame.ParentID = parent.TraceID, parent.SpanID
	} else {
		s.frame.TraceID = newID()
	}
	return ContextWithSpan(ctx, s.Context())
}

// Context returns the span's trace identity (zero for nil and for a span
// of an observer that does not trace).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.frame.TraceID, SpanID: s.frame.SpanID}
}

// SetLabels records the arm's identity. Empty strings leave the previous
// value (so callers can fill labels incrementally).
func (s *Span) SetLabels(workload, input, predictor, scheme string) {
	if s == nil {
		return
	}
	if workload != "" {
		s.rec.Workload = workload
	}
	if input != "" {
		s.rec.Input = input
	}
	if predictor != "" {
		s.rec.Predictor = predictor
	}
	if scheme != "" {
		s.rec.Scheme = scheme
	}
}

// SetTenant records the owning tenant on the trace frame.
func (s *Span) SetTenant(tenant string) {
	if s != nil {
		s.frame.Tenant = tenant
	}
}

// SetJob records the owning job ID on the trace frame.
func (s *Span) SetJob(id string) {
	if s != nil {
		s.frame.Job = id
	}
}

// SetKey records on the trace frame the arm memoization key the span
// covers.
func (s *Span) SetKey(key string) {
	if s != nil {
		s.frame.Key = key
	}
}

// SetSource records where the spanned result came from: computed (an arm's
// default), checkpoint or singleflight.
func (s *Span) SetSource(source string) {
	if s != nil {
		s.rec.Source = source
		s.frame.Source = source
	}
}

// SetStart rewinds the span's start time — for spans created after the fact
// around an already-measured wait (a singleflight follower's blocked time).
func (s *Span) SetStart(t time.Time) {
	if s != nil {
		s.start = t
	}
}

// AddPhase records one phase that started at start and lasted d. It is the
// only writer of the span's phase list; End derives the journal, histogram
// and trace views from that list.
func (s *Span) AddPhase(p Phase, start time.Time, d time.Duration) {
	if s == nil {
		return
	}
	s.phases = append(s.phases, SpanPhase{Phase: p, OffsetNanos: int64(start.Sub(s.start)), DurNanos: int64(d)})
}

// Phase starts timing phase p and returns the function that ends it. Usage:
//
//	defer span.Phase(obs.PhaseSelect)()
func (s *Span) Phase(p Phase) func() {
	if s == nil {
		return noop
	}
	t0 := time.Now()
	return func() { s.AddPhase(p, t0, time.Since(t0)) }
}

var noop = func() {}

// phaseHists maps each arm phase to its duration histogram. PhaseQueue has
// none.
var phaseHists = map[Phase]string{
	PhaseCapture:    MPhaseCapture,
	PhaseReplay:     MPhaseReplay,
	PhaseSimulate:   MPhaseSimulate,
	PhaseSelect:     MPhaseSelect,
	PhaseCheckpoint: MPhaseCheckpoint,
	PhaseSeal:       MPhaseSeal,
}

// Link records a cross-trace reference to another span: kind "singleflight"
// points a follower at the winner that computed its result, kind "capture"
// points a replaying arm at the capture that recorded its stream. Zero
// targets are ignored.
func (s *Span) Link(target SpanContext, kind string) {
	if s == nil || target.TraceID == "" {
		return
	}
	s.frame.Links = append(s.frame.Links, SpanLink{
		TraceID: target.TraceID, SpanID: target.SpanID, Kind: kind,
	})
}

// SetEvents records the arm's dynamic branch count.
func (s *Span) SetEvents(n uint64) {
	if s != nil {
		s.rec.Events = n
	}
}

// SetMetrics attaches the arm's final metrics (marshalled to JSON verbatim).
func (s *Span) SetMetrics(v any) {
	if s == nil {
		return
	}
	if data, err := json.Marshal(v); err == nil {
		s.rec.Metrics = data
	}
}

// End closes the span. err is the spanned operation's outcome (nil for
// success). It walks the phase list once, feeding the per-phase histograms
// and, on an arm span, the record's phases. A traced span is then published
// to the live event bus (never the journal). An arm span finally gets its
// wall time, throughput and fault delta, updates the arm counters, and is
// appended to the journal.
func (s *Span) End(err error) {
	if s == nil {
		return
	}
	now := time.Now()
	wall := now.Sub(s.start)
	for _, p := range s.phases {
		if s.arm {
			s.rec.Phases = append(s.rec.Phases, PhaseTiming{Phase: p.Phase, Nanos: p.DurNanos})
		}
		if name, ok := phaseHists[p.Phase]; ok {
			s.o.Histogram(name).Observe(time.Duration(p.DurNanos))
		}
	}
	if s.traced {
		s.frame.Time = now
		s.frame.StartNanos = s.start.UnixNano()
		s.frame.DurNanos = int64(wall)
		s.frame.Phases = s.phases
		if err != nil {
			s.frame.Error = err.Error()
		}
		s.o.Counter(MTraceSpans).Add(1)
		s.o.Publish(&s.frame)
	}
	if !s.arm {
		return
	}
	s.rec.Time = now
	s.rec.WallNanos = int64(wall)
	s.rec.Faults = s.o.Counter(MFaultsInjected).Value() - s.faults0
	if s.rec.Events > 0 {
		if d := s.streamNanos(); d > 0 {
			s.rec.EventsPerSec = float64(s.rec.Events) / (float64(d) / 1e9)
		}
	}
	s.o.Gauge(MArmsRunning).Add(-1)
	if err != nil {
		s.rec.Error = err.Error()
		s.o.Counter(MArmsFailed).Add(1)
	} else {
		s.o.Counter(MArmsDone).Add(1)
	}
	if s.traced && s.o.slowArm > 0 && wall >= s.o.slowArm {
		// A slow arm: pin an exemplar so the latency bucket leads back to
		// this arm's trace.
		s.o.Histogram(MArmWall).ObserveExemplar(wall, s.frame.TraceID)
	} else {
		s.o.Histogram(MArmWall).Observe(wall)
	}
	s.o.record(&s.rec)
}

// streamNanos returns the wall time of the arm's stream-feeding phase
// (capture, replay or direct simulate), falling back to total wall time.
func (s *Span) streamNanos() int64 {
	for _, p := range s.phases {
		switch p.Phase {
		case PhaseCapture, PhaseReplay, PhaseSimulate:
			return p.DurNanos
		}
	}
	return s.rec.WallNanos
}
