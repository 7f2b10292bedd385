package replay

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"branchsim/internal/fsx"
	"branchsim/internal/obs"
	"branchsim/internal/trace"
	"branchsim/internal/workload"
)

// Engine shares captured traces between arms. Concurrent requests for the
// same key elect one capturer — everyone else replays its chunks as they
// seal — and a bounded worker pool caps concurrent replay decodes. Traces
// stay cached for the engine's lifetime (a sweep); Close releases them and
// deletes any spill files.
type Engine struct {
	workers  int
	budget   int64
	spillDir string

	// Durability policy (see the Option constructors).
	fs      fsx.FS
	verify  bool
	batch   bool
	quarDir string
	logf    func(format string, args ...any)

	sem     chan struct{}
	mem     atomic.Int64  // in-memory chunk bytes, decoded and encoded
	decMem  atomic.Int64  // decoded chunk bytes (see decodedCacheBudget)
	quarSeq atomic.Uint64 // names quarantined chunk files uniquely

	// Observability handles (nil when unobserved; all are nil-safe no-ops
	// then). Set once via SetObserver before the engine is used.
	obsCaptures          *obs.Counter
	obsReplays           *obs.Counter
	obsChunksCaptured    *obs.Counter
	obsChunksSpilled     *obs.Counter
	obsChunksReplayed    *obs.Counter
	obsChunksQuarantined *obs.Counter
	obsSpillErrors       *obs.Counter
	obsMem               *obs.Gauge
	obsWaiting           *obs.Gauge
	obsChunkDecode       *obs.Histogram

	mu     sync.Mutex
	traces map[string]*Trace
	closed bool
}

// Option adjusts an Engine's durability policy at construction.
type Option func(*Engine)

// WithVerify toggles checksum verification of chunks on replay (the
// default is on). Verification catches spill-file corruption — a flipped
// bit, a torn write — before a single poisoned event reaches an arm; the
// corrupt chunk is quarantined and the stream transparently recaptured.
// Turning it off trades that safety for the (small) CRC cost per replayed
// chunk; the durability benchmark measures the difference.
func WithVerify(on bool) Option { return func(e *Engine) { e.verify = on } }

// WithBatch toggles the batched replay kernel (the default is on). When on,
// a recorder that consumes blocks (trace.BlockSink — sim.Runner and the
// harness's bias-only profiler do) is fed whole blocks instead of per-event
// Branch calls, and a capturing arm of that kind is fed each chunk's
// decoded arrays as the chunk seals, instead of simulating per-event inside
// the instrumented execution. When off, every recorder gets per-event
// Branch and Ops calls, through a tee while capturing and from the chunks
// when replaying. Results are bit-identical either way — the differential
// tests prove it — so off is purely an escape hatch (the CLIs expose it as
// -no-batch) and the scalar baseline for benchmarks.
func WithBatch(on bool) Option { return func(e *Engine) { e.batch = on } }

// WithQuarantine sets the directory corrupt chunks are preserved in for
// forensics: the offending chunk's bytes are written there as a standalone
// framed trace file, and a corrupt spill file is renamed there instead of
// deleted. An empty dir (the default) still detects, drops and recaptures
// corrupt chunks — it just keeps no evidence.
func WithQuarantine(dir string) Option { return func(e *Engine) { e.quarDir = dir } }

// WithFS substitutes the filesystem behind spill and quarantine files —
// the seam the disk-fault tests inject through. The default is fsx.OS.
func WithFS(fs fsx.FS) Option { return func(e *Engine) { e.fs = fs } }

// WithLogf sets the sink for the engine's rare, operator-facing events:
// spill downgrades and chunk quarantines. The default discards them.
func WithLogf(logf func(format string, args ...any)) Option {
	return func(e *Engine) { e.logf = logf }
}

// New returns an engine. workers bounds concurrent replay decodes (<= 0
// means GOMAXPROCS); memBudget bounds the total bytes of captured chunks
// held in memory across all captures, decoded arrays and encoded records
// alike: a chunk that does not fit decoded is encoded, and one that does
// not fit encoded either spills to disk (<= 0 means unlimited, nothing
// spills); spillDir is where spill files go ("" means the system temp
// directory). Chunk checksum verification is on unless WithVerify(false)
// says otherwise.
func New(workers int, memBudget int64, spillDir string, opts ...Option) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if spillDir == "" {
		spillDir = os.TempDir()
	}
	e := &Engine{
		workers:  workers,
		budget:   memBudget,
		spillDir: spillDir,
		fs:       fsx.OS,
		verify:   true,
		batch:    true,
		sem:      make(chan struct{}, workers),
		traces:   map[string]*Trace{},
	}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// logef logs one operator-facing event, when a sink is configured.
func (e *Engine) logef(format string, args ...any) {
	if e.logf != nil {
		e.logf(format, args...)
	}
}

// SetObserver publishes the engine's cache efficiency to o's registry:
// captures vs replays (obs.MReplayCaptures / obs.MReplayReplays, counting
// successful stream feeds), chunk flow (obs.MReplayChunksCaptured /
// ...Spilled / ...Replayed), in-memory occupancy (obs.MReplayMemBytes) and
// worker-pool queue depth (obs.MReplayPoolWaiting). Call it once, before
// the engine feeds arms; a nil observer leaves the engine unobserved.
func (e *Engine) SetObserver(o *obs.Observer) {
	if o == nil {
		return
	}
	e.obsCaptures = o.Counter(obs.MReplayCaptures)
	e.obsReplays = o.Counter(obs.MReplayReplays)
	e.obsChunksCaptured = o.Counter(obs.MReplayChunksCaptured)
	e.obsChunksSpilled = o.Counter(obs.MReplayChunksSpilled)
	e.obsChunksReplayed = o.Counter(obs.MReplayChunksReplayed)
	e.obsChunksQuarantined = o.Counter(obs.MReplayChunksQuarantined)
	e.obsSpillErrors = o.Counter(obs.MReplaySpillErrors)
	e.obsMem = o.Gauge(obs.MReplayMemBytes)
	e.obsWaiting = o.Gauge(obs.MReplayPoolWaiting)
	e.obsChunkDecode = o.Histogram(obs.MReplayChunkDecode)
}

// Key names the shared capture of one (workload, input) pair. The harness
// and Sweep use the same key space, so a mixed pipeline still captures each
// pair exactly once.
func Key(workload, input string) string { return workload + "\x00" + input }

// ErrClosed is returned by Run on an engine whose Close has been called.
var ErrClosed = errors.New("replay: engine closed")

// acquire returns the live trace for key, creating it — and electing the
// caller as its capturer — when absent.
func (e *Engine) acquire(key string) (*Trace, bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, false, ErrClosed
	}
	if t, ok := e.traces[key]; ok {
		return t, false, nil
	}
	t := newTrace(e)
	t.key = key
	e.traces[key] = t
	return t, true, nil
}

// drop unregisters a failed trace so the next caller recaptures.
func (e *Engine) drop(t *Trace) {
	e.mu.Lock()
	if cur, ok := e.traces[t.key]; ok && cur == t {
		delete(e.traces, t.key)
	}
	e.mu.Unlock()
	t.markDropped()
}

// wantSpill reports whether an additional n in-memory bytes would exceed
// the engine's memory budget.
func (e *Engine) wantSpill(n int64) bool {
	return e.budget > 0 && e.mem.Load()+n > e.budget
}

// acquireSlot takes one replay-decode slot from the worker pool.
func (e *Engine) acquireSlot(ctx context.Context) error {
	e.obsWaiting.Add(1)
	defer e.obsWaiting.Add(-1)
	select {
	case e.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (e *Engine) releaseSlot() { <-e.sem }

// MemBytes reports the captured chunk bytes currently held in memory,
// decoded and encoded.
func (e *Engine) MemBytes() int64 { return e.mem.Load() }

// Trace returns the cached capture for key, when one is live — e.g. to
// export it with Trace.WriteTo after a sweep.
func (e *Engine) Trace(key string) (*Trace, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ok := e.traces[key]
	return t, ok
}

// Close drops every cached trace and deletes spill files. Runs still in
// flight finish against their already-acquired traces; new Run calls fail
// with ErrClosed. Close is idempotent.
func (e *Engine) Close() {
	e.mu.Lock()
	e.closed = true
	traces := e.traces
	e.traces = map[string]*Trace{}
	e.mu.Unlock()
	for _, t := range traces {
		t.markDropped()
	}
}

// Source says how an arm's branch stream was fed: by executing the
// instrumented workload while recording it (SourceCapture) or by replaying
// another arm's capture (SourceReplay). SourceDirect is reported only by
// the harness for engineless execution.
type Source int

// Stream sources.
const (
	SourceDirect Source = iota
	SourceCapture
	SourceReplay
)

// String implements fmt.Stringer.
func (s Source) String() string {
	switch s {
	case SourceDirect:
		return "direct"
	case SourceCapture:
		return "capture"
	case SourceReplay:
		return "replay"
	default:
		return fmt.Sprintf("Source(%d)", int(s))
	}
}

// Run feeds one arm with the branch stream of key: the first caller
// executes produce (the instrumented workload) while feeding the stream
// to its own recorder and the shared chunk buffer; every other caller
// replays the buffer, overlapping the capture. newRec must build a fresh
// recorder on every call — when a shared capture fails, surviving arms
// rebuild and replay the recapture from the start, so a recorder must
// never carry state across attempts. Run returns the stream totals and
// the error of this arm alone; panics from the arm's recorder propagate
// (callers isolate them — the harness with its guard, Sweep per arm).
func (e *Engine) Run(ctx context.Context, key string, produce func(trace.Recorder) error, newRec func() (trace.Recorder, error)) (trace.Counts, error) {
	c, _, err := e.RunSourced(ctx, key, produce, newRec)
	return c, err
}

// RunSourced is Run, additionally reporting whether this arm captured the
// stream or replayed a shared capture — the provenance the run journal
// records per arm. When a failed capture forces a restart, the source of
// the final attempt is reported.
func (e *Engine) RunSourced(ctx context.Context, key string, produce func(trace.Recorder) error, newRec func() (trace.Recorder, error)) (trace.Counts, Source, error) {
	for {
		if err := ctx.Err(); err != nil {
			return trace.Counts{}, SourceReplay, err
		}
		rec, err := newRec()
		if err != nil {
			return trace.Counts{}, SourceReplay, err
		}
		t, capturer, err := e.acquire(key)
		if err != nil {
			return trace.Counts{}, SourceReplay, err
		}
		if capturer {
			// In batch mode a block-consuming arm is fed each chunk's
			// decoded arrays as the chunk seals: the instrumented execution
			// pays only array appends and the arm runs block-wise.
			// Provenance stays SourceCapture: this arm executed the workload.
			c, err := t.capture(produce, rec)
			if err == nil {
				e.obsCaptures.Add(1)
			}
			return c, SourceCapture, err
		}
		c, err := t.Replay(ctx, rec)
		if err != nil && errors.Is(err, ErrCaptureFailed) {
			// The capturer died. Rebuild the arm (the recorder saw a
			// partial stream) and recapture; one of the waiters becomes
			// the new capturer and reports the definitive error.
			continue
		}
		if err == nil {
			e.obsReplays.Add(1)
		}
		return c, SourceReplay, err
	}
}

// runGuarded is Run with the pipeline's panic isolation: a cooperative
// cancellation Stop becomes its error, any other panic a PanicError.
func (e *Engine) runGuarded(ctx context.Context, key string, produce func(trace.Recorder) error, newRec func() (trace.Recorder, error)) (c trace.Counts, err error) {
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

// Arm is one predictor configuration swept over a shared capture.
type Arm struct {
	// Label identifies the arm in its Result.
	Label string
	// New builds the arm's recorder, typically a *sim.Runner. It is
	// called again if the arm must restart after a failed shared capture,
	// so it must return a fresh recorder with no carried-over state.
	New func() (trace.Recorder, error)
}

// Result is one arm's outcome.
type Result struct {
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

// Sweep runs prog on input — once — and feeds every arm from the shared
// capture, concurrently, overlapping the capture itself. One arm drives
// the instrumented execution while it simulates; the rest replay. A
// panicking arm fails alone: its Result carries the panic as an error, and
// if it was the capturer, the surviving arms transparently recapture.
func (e *Engine) Sweep(ctx context.Context, prog workload.Program, input string, arms []Arm) []Result {
	produce := func(r trace.Recorder) error {
		return workload.RunProgram(ctx, prog, input, r)
	}
	key := Key(prog.Name(), input)
	results := make([]Result, len(arms))
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
			c, err := e.runGuarded(ctx, key, produce, newRec)
			results[i] = Result{Label: a.Label, Rec: rec, Counts: c, Err: err}
		}(i)
	}
	wg.Wait()
	return results
}
