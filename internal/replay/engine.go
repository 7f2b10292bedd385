package replay

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"branchsim/internal/fsx"
	"branchsim/internal/obs"
	"branchsim/internal/trace"
)

// Engine shares captured traces between arms. Concurrent requests for the
// same key elect one capturer, which starts the capture on its own
// goroutine; every arm replays the chunks as they seal, and a bounded
// worker pool caps the other arms' replays. Traces stay cached for the
// engine's lifetime (a sweep); Close releases them and deletes spill files.
type Engine struct {
	workers  int
	budget   int64
	spillDir string

	// Durability policy (see the Option constructors).
	fs      fsx.FS
	quarDir string
	logf    func(format string, args ...any)

	sem     chan struct{}
	mem     atomic.Int64  // in-memory chunk bytes, decoded and encoded
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
	obsCapture           *obs.Histogram

	mu     sync.Mutex
	traces map[string]*Trace
	closed bool
}

// Option adjusts an Engine's durability policy at construction.
type Option func(*Engine)

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
// directory). Every arm is fed whole blocks (see trace.Blocks), and every
// encoded chunk is checksum-verified before it is replayed or exported: a
// corrupt one is quarantined and the stream recaptured.
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
// ...Spilled / ...Replayed), in-memory occupancy (obs.MReplayMemBytes),
// pool queue depth (obs.MReplayPoolWaiting) and timings (obs.MReplayCapture,
// ...ChunkDecode). Call it once, before the engine feeds arms; a nil
// observer leaves the engine unobserved.
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
	e.obsCapture = o.Histogram(obs.MReplayCapture)
}

// Key names the shared capture of one (workload, input) pair, so every
// caller sharing an engine captures each pair exactly once.
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
	t := newTrace(e, key)
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

// Run feeds one arm with the branch stream of key: the first caller runs
// produce (the instrumented workload) into the shared chunk buffer on a
// goroutine of its own, and every caller, that one included, replays the
// buffer, overlapping the capture. newRec must build a fresh
// recorder on every call — when a shared capture fails, surviving arms
// rebuild and replay the recapture from the start, so a recorder must
// never carry state across attempts. Run returns the stream totals and
// the error of this arm alone; panics from the arm's recorder propagate
// (callers isolate them, as the harness does with its guard).
func (e *Engine) Run(ctx context.Context, key string, produce func(trace.Recorder) error, newRec func() (trace.Recorder, error)) (trace.Counts, error) {
	c, _, err := e.RunSourced(ctx, key, produce, newRec)
	return c, err
}

// RunSourced is Run, additionally reporting whether this arm captured the
// stream or replayed a shared capture — the provenance the run journal
// records per arm. When a failed capture forces a restart, the source of
// the final attempt is reported. The capturing arm replays outside the
// worker pool; a failed capture is its error (a panic in produce a
// *workload.PanicError), while its own recorder's panic leaves the capture
// running for the other arms.
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
		var c trace.Counts
		src, fed := SourceReplay, e.obsReplays
		if capturer {
			src, fed = SourceCapture, e.obsCaptures
			captured := make(chan error, 1)
			go func() { captured <- t.capture(produce) }()
			c, err = t.replay(ctx, rec, captured)
		} else {
			c, err = t.Replay(ctx, rec)
		}
		if errors.Is(err, ErrCaptureFailed) {
			// The capture died, or a replay found a corrupt chunk. Rebuild
			// the arm (the recorder saw a partial stream) and recapture; one
			// arm becomes the new capturer and reports the definitive error.
			continue
		}
		if err == nil {
			fed.Add(1)
		}
		return c, src, err
	}
}
