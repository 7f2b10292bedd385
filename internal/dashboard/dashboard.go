// Package dashboard is the live experiment UI: a server-side state model
// fed by the obs event bus (or a journal tail), HTTP handlers exposing that
// state as JSON, SVG charts rendered by internal/plot, and an embedded
// single-page front end. It consumes only the versioned {type,v} JSONL
// envelope — the same schema the journal uses — so it works identically
// over a live sweep (bpexperiment -serve), a finished journal (bpdash) and
// an in-flight journal (bpdash -follow).
package dashboard

import (
	"sync"

	"branchsim/internal/obs"
)

// Bounds on the in-memory state: the dashboard must stay O(1) in stream
// length no matter how long the sweep runs.
const (
	// maxIntervals caps the interval-record store behind the charts; the
	// oldest records are evicted (and counted) past it.
	maxIntervals = 8192
	// tailLines is the journal-tail pane depth.
	tailLines = 200
	// maxTraces caps the retained trace store: the oldest complete traces
	// are evicted past it. Spans within one trace are unbounded — a trace
	// is request → job → arms, which the arm quota already bounds.
	maxTraces = 64
)

// Arm is one sweep arm's live status row.
type Arm struct {
	Kind      string `json:"kind"`
	Key       string `json:"key"`
	Workload  string `json:"workload,omitempty"`
	Input     string `json:"input,omitempty"`
	Predictor string `json:"predictor,omitempty"`
	Scheme    string `json:"scheme,omitempty"`

	// Status is "running", "done" or "failed".
	Status string `json:"status"`
	// Source is where the result came from once the arm ended (computed,
	// checkpoint, singleflight).
	Source string            `json:"source,omitempty"`
	Phases []obs.PhaseTiming `json:"phases,omitempty"`

	Events       uint64  `json:"events,omitempty"`
	WallNanos    int64   `json:"wall_ns,omitempty"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	Error        string  `json:"error,omitempty"`
}

// Job is one sweep-service job's live status row (bpserve publishes these;
// offline journals have none).
type Job struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	Name   string `json:"name,omitempty"`
	// State is queued, running, done, failed or cancelled.
	State      string `json:"state"`
	ArmsTotal  int    `json:"arms_total"`
	ArmsDone   int    `json:"arms_done"`
	ArmsFailed int    `json:"arms_failed"`
	Error      string `json:"error,omitempty"`
}

// State is the dashboard's server-side model. Feed it record frames with
// Ingest; read it through the Handler routes. Safe for concurrent use.
type State struct {
	mu sync.Mutex

	arms  map[string]*Arm
	order []string // arm keys in first-seen order

	jobs     map[string]*Job
	jobOrder []string // job IDs in first-seen order

	progress obs.ProgressRecord
	hasProg  bool

	intervals        []obs.IntervalRecord
	intervalsEvicted uint64

	confidence        []obs.ConfidenceRecord
	confidenceEvicted uint64

	tail  [][]byte // ring of the newest raw JSONL lines
	tailN uint64   // total lines ever ingested

	traces     map[string][]obs.SpanRecord
	traceOrder []string // trace IDs in first-seen order

	malformed uint64
	drops     uint64 // cumulative upstream frame drops (DropsRecord)

	// liveDrops reports this consumer's own bus-queue drops (set by Attach).
	liveDrops func() uint64
}

// NewState returns an empty model.
func NewState() *State {
	return &State{arms: map[string]*Arm{}, jobs: map[string]*Job{}, traces: map[string][]obs.SpanRecord{}}
}

// Ingest feeds one JSONL record frame (no trailing newline). Unparseable
// frames are counted, not fatal — the stream may be from a newer schema.
func (st *State) Ingest(line []byte) {
	rec, err := obs.DecodeRecord(line)
	st.mu.Lock()
	defer st.mu.Unlock()
	st.pushTail(line)
	if err != nil {
		st.malformed++
		return
	}
	switch r := rec.(type) {
	case *obs.ArmStartRecord:
		a := st.arm(r.Key)
		a.Kind = r.Kind
		a.Status = "running"
	case *obs.ArmRecord:
		a := st.arm(r.Key)
		a.Kind = r.Kind
		if r.Error != "" {
			a.Status, a.Error = "failed", r.Error
		} else {
			a.Status = "done"
		}
		a.Workload, a.Input = r.Workload, r.Input
		a.Predictor, a.Scheme = r.Predictor, r.Scheme
		a.Source, a.Phases = r.Source, r.Phases
		a.Events, a.WallNanos, a.EventsPerSec = r.Events, r.WallNanos, r.EventsPerSec
	case *obs.IntervalRecord:
		if len(st.intervals) >= maxIntervals {
			n := copy(st.intervals, st.intervals[1:])
			st.intervals = st.intervals[:n]
			st.intervalsEvicted++
		}
		st.intervals = append(st.intervals, *r)
	case *obs.ConfidenceRecord:
		if len(st.confidence) >= maxIntervals {
			n := copy(st.confidence, st.confidence[1:])
			st.confidence = st.confidence[:n]
			st.confidenceEvicted++
		}
		st.confidence = append(st.confidence, *r)
	case *obs.JobRecord:
		j := st.jobs[r.ID]
		if j == nil {
			j = &Job{ID: r.ID}
			st.jobs[r.ID] = j
			st.jobOrder = append(st.jobOrder, r.ID)
		}
		j.Tenant, j.Name, j.State = r.Tenant, r.Name, r.State
		j.ArmsTotal, j.ArmsDone, j.ArmsFailed = r.ArmsTotal, r.ArmsDone, r.ArmsFailed
		j.Error = r.Error
	case *obs.SpanRecord:
		if _, ok := st.traces[r.TraceID]; !ok {
			if len(st.traceOrder) >= maxTraces {
				oldest := st.traceOrder[0]
				st.traceOrder = st.traceOrder[1:]
				delete(st.traces, oldest)
			}
			st.traceOrder = append(st.traceOrder, r.TraceID)
		}
		st.traces[r.TraceID] = append(st.traces[r.TraceID], *r)
	case *obs.ProgressRecord:
		st.progress, st.hasProg = *r, true
	case *obs.DropsRecord:
		if r.Dropped > st.drops {
			st.drops = r.Dropped
		}
	}
}

// arm returns the status row for key, creating it in arrival order.
// Caller holds st.mu.
func (st *State) arm(key string) *Arm {
	a := st.arms[key]
	if a == nil {
		a = &Arm{Key: key, Status: "running"}
		st.arms[key] = a
		st.order = append(st.order, key)
	}
	return a
}

// pushTail appends one raw line to the tail ring. Caller holds st.mu.
func (st *State) pushTail(line []byte) {
	cp := make([]byte, len(line))
	copy(cp, line)
	if len(st.tail) >= tailLines {
		n := copy(st.tail, st.tail[1:])
		st.tail = st.tail[:n]
	}
	st.tail = append(st.tail, cp)
	st.tailN++
}

// Snapshot is the /api/state payload.
type Snapshot struct {
	Arms []Arm `json:"arms"`
	// Jobs is the cross-job sweep-service view, first-submitted first
	// (empty unless a bpserve daemon feeds the stream).
	Jobs     []Job               `json:"jobs,omitempty"`
	Progress *obs.ProgressRecord `json:"progress,omitempty"`
	// Intervals is how many interval records the charts currently cover;
	// IntervalsEvicted how many older ones the bounded store let go.
	// Confidence counts the retained confidence records likewise.
	Intervals         int    `json:"intervals"`
	IntervalsEvicted  uint64 `json:"intervals_evicted,omitempty"`
	Confidence        int    `json:"confidence,omitempty"`
	ConfidenceEvicted uint64 `json:"confidence_evicted,omitempty"`
	// Drops is the upstream subscriber drop count reported in the stream;
	// LiveDrops this dashboard's own bus-queue drops. Either being nonzero
	// means the view is lossy (the journal is still complete).
	Drops     uint64 `json:"drops,omitempty"`
	LiveDrops uint64 `json:"live_drops,omitempty"`
	Malformed uint64 `json:"malformed,omitempty"`
	Lines     uint64 `json:"lines"`
}

// Snapshot returns a copy of the current state for JSON rendering.
func (st *State) Snapshot() Snapshot {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := Snapshot{
		Arms:              make([]Arm, 0, len(st.order)),
		Intervals:         len(st.intervals),
		IntervalsEvicted:  st.intervalsEvicted,
		Confidence:        len(st.confidence),
		ConfidenceEvicted: st.confidenceEvicted,
		Drops:             st.drops,
		Malformed:         st.malformed,
		Lines:             st.tailN,
	}
	for _, key := range st.order {
		out.Arms = append(out.Arms, *st.arms[key])
	}
	for _, id := range st.jobOrder {
		out.Jobs = append(out.Jobs, *st.jobs[id])
	}
	if st.hasProg {
		p := st.progress
		out.Progress = &p
	}
	if st.liveDrops != nil {
		out.LiveDrops = st.liveDrops()
	}
	return out
}

// TraceSummary is one retained trace's row in the /api/traces listing.
type TraceSummary struct {
	TraceID string `json:"trace_id"`
	// Root names the earliest-starting span ("request" for daemon traces).
	Root   string `json:"root"`
	Tenant string `json:"tenant,omitempty"`
	Job    string `json:"job,omitempty"`
	Spans  int    `json:"spans"`
	// DurNanos spans the earliest start to the latest end seen so far.
	DurNanos int64 `json:"dur_ns"`
	Errors   int   `json:"errors,omitempty"`
}

// Traces summarizes the retained traces, oldest first.
func (st *State) Traces() []TraceSummary {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]TraceSummary, 0, len(st.traceOrder))
	for _, id := range st.traceOrder {
		spans := st.traces[id]
		sum := TraceSummary{TraceID: id, Spans: len(spans)}
		t0, t1 := spans[0].StartNanos, spans[0].StartNanos+spans[0].DurNanos
		rootStart := int64(1<<63 - 1)
		for i := range spans {
			sp := &spans[i]
			if sp.StartNanos < t0 {
				t0 = sp.StartNanos
			}
			if end := sp.StartNanos + sp.DurNanos; end > t1 {
				t1 = end
			}
			if sp.StartNanos < rootStart {
				rootStart, sum.Root = sp.StartNanos, sp.Name
			}
			if sum.Tenant == "" {
				sum.Tenant = sp.Tenant
			}
			if sum.Job == "" {
				sum.Job = sp.Job
			}
			if sp.Error != "" {
				sum.Errors++
			}
		}
		sum.DurNanos = t1 - t0
		out = append(out, sum)
	}
	return out
}

// Trace returns a copy of one trace's spans in arrival order, or nil when
// the trace is unknown (or already evicted).
func (st *State) Trace(id string) []obs.SpanRecord {
	st.mu.Lock()
	defer st.mu.Unlock()
	spans := st.traces[id]
	if spans == nil {
		return nil
	}
	out := make([]obs.SpanRecord, len(spans))
	copy(out, spans)
	return out
}

// Intervals returns a copy of the retained interval records (charts render
// from this).
func (st *State) Intervals() []obs.IntervalRecord {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]obs.IntervalRecord, len(st.intervals))
	copy(out, st.intervals)
	return out
}

// Tail returns up to n of the newest ingested lines, oldest first.
func (st *State) Tail(n int) [][]byte {
	st.mu.Lock()
	defer st.mu.Unlock()
	if n <= 0 || n > len(st.tail) {
		n = len(st.tail)
	}
	out := make([][]byte, n)
	copy(out, st.tail[len(st.tail)-n:])
	return out
}

// Attach wires a dashboard to an observer's live bus: it subscribes,
// feeds a State from the stream in a goroutine, and returns the HTTP
// handler plus a stop function that detaches and waits for the feeder to
// drain. Pass the handler to obs.Serve via obs.WithRootHandler.
func Attach(o *obs.Observer) (*State, func()) {
	st := NewState()
	sub := o.Subscribe(1024)
	done := make(chan struct{})
	if sub == nil { // nil (disabled) observer: an empty, static dashboard
		close(done)
		return st, func() {}
	}
	st.liveDrops = sub.Dropped
	go func() {
		defer close(done)
		for line := range sub.C() {
			st.Ingest(line)
		}
	}()
	stop := func() {
		sub.Close()
		<-done
	}
	return st, stop
}

// ConfidenceRecords returns a copy of the retained confidence records (the
// confidence chart renders from this).
func (st *State) ConfidenceRecords() []obs.ConfidenceRecord {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]obs.ConfidenceRecord, len(st.confidence))
	copy(out, st.confidence)
	return out
}
