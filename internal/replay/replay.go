// Package replay implements a capture-once, fan-out simulation engine.
//
// Every uncached arm of a sweep used to re-execute the full instrumented
// workload just to regenerate the identical (PC, taken) stream; for the
// paper's grid the workload cost is pure replication. This package records
// a workload's branch stream once — into chunks of decoded parallel arrays
// (PC, outcome, preceding straight-line run) ready for the block kernels —
// and feeds any number of predictor arms from that buffer. Chunks are
// published as they are sealed, so arms replay concurrently *with* the
// capture, not after it; a bounded worker pool caps how many replays run at
// once.
//
// Memory is bounded: the engine's budget counts every in-memory chunk byte.
// A chunk is encoded into compact, self-contained records (delta-encoded
// PCs plus outcome bits, see trace/chunk.go) and checksummed only when it
// leaves decoded form: when the decoded arrays would overrun the budget, and
// on export. Once the budget is exhausted, encoded chunks spill to a temp
// file in internal/trace's version-3 (checksummed framed-chunk) file format,
// and replay cursors read them back with ReadAt. Because every chunk is
// self-contained, a spill file (or a full export via Trace.WriteTo) is
// itself a valid trace file for trace.NewReader.
//
// Durability is policy, not best-effort: every encoded chunk carries the
// CRC32C taken when it was encoded, verified on every replay and export.
// A chunk that fails verification — or fails structurally during decode —
// is never partially trusted: the engine quarantines the evidence, drops
// the trace, and the waiting arms transparently recapture the stream from
// the workload, exactly as they do when a capturer panics. A spill write
// that fails (ENOSPC, I/O error) downgrades the capture to in-memory
// chunks: correctness over the memory budget, with the downgrade counted
// and logged.
//
// The resilience semantics of the experiment pipeline are preserved: every
// capture and replay runs under the caller's context, a panicking arm fails
// alone (a panic during capture fails the trace, waiting arms rebuild their
// recorders and recapture), and cancellation drains cleanly.
package replay

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"branchsim/internal/fsx"
	"branchsim/internal/trace"
)

// chunkEvents is how many branches one chunk holds: the capture seals a
// chunk every chunkEvents branches. It matches the simulator's cancellation
// cadence, so a cancelled replay stops fast, while the per-chunk
// synchronization stays invisible in the event loop.
const chunkEvents = 16 << 10

// ErrCaptureFailed reports that the goroutine recording a shared trace
// failed before sealing it. Replayers receiving it (wrapped around the
// capture's own error) rebuild their recorder and recapture; Engine.Run
// does this automatically.
var ErrCaptureFailed = errors.New("replay: capture failed")

// chunk is one sealed span of the stream, held in exactly one form: decoded
// arrays in memory, or encoded records in memory or in the spill file.
type chunk struct {
	dec  *decoded // decoded form; nil once the chunk is encoded
	data []byte   // encoded records held in memory; nil when decoded or spilled
	off  int64    // offset of the records in the spill file, when spilled
	size int
	crc  uint32 // CRC32C of the encoded records, taken when they were encoded
}

// decoded is one chunk's event stream as parallel arrays, filled by the
// capture as events arrive. It is the in-memory form of every chunk that
// fits the engine's memory budget: replay cursors feed it to their
// recorders whole. A chunk that does not fit is encoded as it seals (seal),
// and an exported one as it is written (WriteTo). Once sealed, the arrays
// are shared and read-only.
type decoded struct {
	pcs    []uint64
	taken  []bool
	ops    []uint64 // ops[i] straight-line instructions precede branch i
	opsSum uint64   // sum(ops), accumulated as the capture appends
	tail   uint64   // trailing straight-line run after the last branch
}

// bytes is the memory the decoded arrays hold.
func (d *decoded) bytes() int64 {
	return int64(cap(d.pcs)*8 + cap(d.taken) + cap(d.ops)*8)
}

// feed replays the decoded chunk into a block sink. Sinks that accept a
// presummed block (sim.Runner) get the capture-time instruction total and
// skip their own pass over the ops array.
func (d *decoded) feed(sink trace.BlockSink) {
	if len(d.pcs) > 0 {
		if ss, ok := sink.(trace.SummedBlockSink); ok {
			ss.RunBlockSummed(d.pcs, d.taken, d.ops, d.opsSum)
		} else {
			sink.RunBlock(d.pcs, d.taken, d.ops)
		}
	}
	if d.tail > 0 {
		sink.Ops(d.tail)
	}
}

// encode returns the chunk as self-contained trace records: the bytes w
// writes when fed the chunk's events one by one and cut.
func (d *decoded) encode(w *trace.ChunkWriter) []byte {
	d.feed(trace.Blocks(w))
	return w.Cut()
}

// Trace is one captured branch stream: a sequence of self-contained chunks
// plus the stream totals. Chunks appear while the capture is still running,
// so replays overlap it.
type Trace struct {
	e   *Engine
	key string

	// capture-side state, touched only by the capturing goroutine
	enc         trace.ChunkWriter // encodes the chunks that leave memory
	spill       fsx.File
	spillSize   int64
	spillBroken bool

	mu          sync.Mutex
	notify      chan struct{} // closed and replaced on every state change
	chunks      []chunk
	done        bool
	err         error        // capture failure, wrapped in ErrCaptureFailed
	counts      trace.Counts // stream totals, valid once done with nil err
	memBytes    int64        // in-memory chunk bytes, counted against e.mem
	readers     int
	dropped     bool
	capturing   bool // the capture goroutine may still write the spill file
	quarantined bool // a corrupt chunk was found; preserve the spill file
}

func newTrace(e *Engine) *Trace {
	return &Trace{e: e, notify: make(chan struct{})}
}

// broadcastLocked wakes every goroutine waiting for a state change.
func (t *Trace) broadcastLocked() {
	close(t.notify)
	t.notify = make(chan struct{})
}

// captureRec is the Recorder the capture drives: it appends every event
// straight to the open chunk's decoded arrays and seals the chunk each
// chunkEvents branches. Each sealed chunk is then fed to the capturing arm.
type captureRec struct {
	t       *Trace
	counts  trace.Counts    // totals of the chunks sealed so far
	sink    trace.BlockSink // the capturing arm
	dec     decoded         // the open chunk
	pending uint64          // straight-line run awaiting its branch
}

func newCaptureRec(t *Trace, sink trace.BlockSink) *captureRec {
	c := &captureRec{t: t, sink: sink}
	c.open()
	return c
}

// open starts the next chunk's arrays at their full size, so appends never
// regrow them.
func (c *captureRec) open() {
	c.dec = decoded{
		pcs:   make([]uint64, 0, chunkEvents),
		taken: make([]bool, 0, chunkEvents),
		ops:   make([]uint64, 0, chunkEvents),
	}
}

// Branch implements trace.Recorder.
func (c *captureRec) Branch(pc uint64, taken bool) {
	d := &c.dec
	d.pcs = append(d.pcs, pc)
	d.taken = append(d.taken, taken)
	d.ops = append(d.ops, c.pending)
	d.opsSum += c.pending
	c.pending = 0
	if len(d.pcs) == chunkEvents {
		c.cut()
	}
}

// Ops implements trace.Recorder.
func (c *captureRec) Ops(n uint64) { c.pending += n }

// cut seals the full open chunk and opens the next; the sealed chunk then
// goes to the capturing arm.
func (c *captureRec) cut() {
	d := c.take()
	c.open()
	c.t.seal(d)
	d.feed(c.sink)
}

// take detaches the open chunk, stamped with the trailing straight-line run,
// and adds it to the stream totals. The capture never writes the detached
// arrays again, so replay cursors may share them.
func (c *captureRec) take() *decoded {
	d := c.dec
	d.tail, c.pending = c.pending, 0
	n := uint64(len(d.pcs))
	c.counts.Branches += n
	c.counts.Instructions += n + d.opsSum + d.tail
	for _, tk := range d.taken {
		if tk {
			c.counts.TakenCount++
		}
	}
	return &d
}

// seal publishes one finished chunk in the form the engine's memory budget
// allows. It stays decoded while the budget has room for its arrays (always,
// with no budget). Otherwise it is encoded and checksummed, then kept in
// memory if the memory budget has room for the records, or else spilled to
// disk. A failed spill write degrades to keeping the records in memory —
// correctness over the budget — and is counted and logged once per capture.
func (t *Trace) seal(d *decoded) {
	if len(d.pcs) == 0 && d.tail == 0 {
		return
	}
	e := t.e
	ck, n := chunk{dec: d}, d.bytes()
	if e.wantSpill(n) {
		data := d.encode(&t.enc)
		ck = chunk{data: data, size: len(data), crc: trace.Checksum(data)}
		n = int64(len(data))
		if e.wantSpill(n) && !t.spillBroken {
			if off, err := t.writeSpill(data, ck.crc); err != nil {
				t.spillBroken = true
				e.obsSpillErrors.Add(1)
				e.logef("replay: spill write failed (%v); capture continues in memory over budget", err)
			} else {
				ck.data, ck.off, n = nil, off, 0
				e.obsChunksSpilled.Add(1)
			}
		}
	}
	e.obsChunksCaptured.Add(1)
	t.mu.Lock()
	if !t.dropped {
		t.memBytes += n
		e.mem.Add(n)
		e.obsMem.Set(e.mem.Load())
	}
	t.chunks = append(t.chunks, ck)
	t.broadcastLocked()
	t.mu.Unlock()
}

// writeSpill appends one framed chunk to the spill file, creating it (with
// the version-3 trace header) on first use, and returns the offset of the
// chunk's payload — the frame header before it makes the file a valid,
// verifiable trace file end to end, while ReadAt cursors address the bare
// payload.
func (t *Trace) writeSpill(data []byte, crc uint32) (int64, error) {
	fs := t.e.fs
	if t.spill == nil {
		if err := fs.MkdirAll(t.e.spillDir, 0o755); err != nil {
			return 0, err
		}
		f, err := fs.CreateTemp(t.e.spillDir, "bpreplay-*.btrc")
		if err != nil {
			return 0, err
		}
		hdr := trace.FramedFileHeader()
		if _, err := f.Write(hdr); err != nil {
			f.Close()
			fs.Remove(f.Name())
			return 0, err
		}
		t.spill, t.spillSize = f, int64(len(hdr))
	}
	frameHdr := trace.AppendFrameHeader(nil, len(data), crc)
	if _, err := t.spill.Write(frameHdr); err != nil {
		return 0, err
	}
	off := t.spillSize + int64(len(frameHdr))
	if _, err := t.spill.Write(data); err != nil {
		return 0, err
	}
	t.spillSize = off + int64(len(data))
	return off, nil
}

// finish seals the final chunk and marks the capture complete. The final
// chunk reaches the capturing arm only after the trace is published
// complete, so a panic there (e.g. cooperative cancellation) fails that arm
// alone, not the shared capture.
func (t *Trace) finish(cr *captureRec) {
	d := cr.take()
	// The last chunk is partial: copy it out of its full-size arrays.
	d.pcs, d.taken, d.ops = slices.Clone(d.pcs), slices.Clone(d.taken), slices.Clone(d.ops)
	t.seal(d)
	t.mu.Lock()
	t.counts = cr.counts
	t.done = true
	t.captureEndedLocked()
	t.broadcastLocked()
	t.mu.Unlock()
	d.feed(cr.sink)
}

// fail marks the capture failed, wakes every waiter with the wrapped cause,
// and unregisters the trace so the next caller recaptures.
func (t *Trace) fail(cause error) {
	t.mu.Lock()
	t.done = true
	if t.err == nil {
		t.err = fmt.Errorf("%w: %w", ErrCaptureFailed, cause)
	}
	t.captureEndedLocked()
	t.broadcastLocked()
	t.mu.Unlock()
	t.e.drop(t)
}

// captureEndedLocked marks the spill file safe to close and performs any
// close that was deferred because the capture goroutine could still be
// writing (a reader quarantining a corrupt chunk mid-capture).
func (t *Trace) captureEndedLocked() {
	t.capturing = false
	if t.dropped && t.readers == 0 {
		t.closeSpillLocked()
	}
}

// failCorrupt is the reader-side counterpart of fail: a replay found a
// chunk whose bytes no longer match their stored checksum (or no
// longer decode). The trace is failed with the corruption wrapped in
// ErrCaptureFailed, so every arm — including the finder — rebuilds its
// recorder and recaptures via the same path that recovers a dead capturer;
// the spill file is preserved for quarantine instead of deleted.
func (t *Trace) failCorrupt(cause error) error {
	err := fmt.Errorf("%w: %w", ErrCaptureFailed, cause)
	t.mu.Lock()
	t.quarantined = true
	if t.err == nil {
		t.err = err
	}
	t.broadcastLocked()
	t.mu.Unlock()
	t.e.drop(t)
	return err
}

// quarantine records one corrupt chunk: counts it, preserves its bytes as
// a standalone framed trace file in the engine's quarantine directory (when
// one is configured), and logs the event. data holds the corrupt bytes as
// read; crc is the stored checksum they failed.
func (t *Trace) quarantine(i int, data []byte, crc uint32, cause error) {
	e := t.e
	e.obsChunksQuarantined.Add(1)
	e.logef("replay: chunk %d of %q corrupt (%v); quarantining and recapturing", i, t.key, cause)
	if e.quarDir == "" {
		return
	}
	if err := e.fs.MkdirAll(e.quarDir, 0o755); err != nil {
		e.logef("replay: quarantine dir: %v", err)
		return
	}
	// The evidence file is a valid version-3 trace file carrying the
	// stored checksum over the corrupt bytes, so reading it back
	// reproduces exactly the verification failure seen here.
	body := trace.FramedFileHeader()
	body = trace.AppendFrameHeader(body, len(data), crc)
	body = append(body, data...)
	name := filepath.Join(e.quarDir, fmt.Sprintf("chunk-%06d.btrc", e.quarSeq.Add(1)))
	if err := e.fs.WriteFile(name, body, 0o644); err != nil {
		e.logef("replay: writing quarantined chunk: %v", err)
	}
}

// capture runs produce once, recording its stream into sealed chunks and
// feeding each chunk's decoded arrays to the capturing arm's own recorder
// as the chunk seals, so the capturer simulates while it records. On any
// failure, including a panic unwinding through produce, the trace is
// failed first so no waiter hangs.
func (t *Trace) capture(produce func(trace.Recorder) error, rec trace.Recorder) (c trace.Counts, err error) {
	cr := newCaptureRec(t, trace.Blocks(rec))
	t.mu.Lock()
	t.capturing = true
	t.mu.Unlock()
	defer func() {
		if r := recover(); r != nil {
			t.fail(fmt.Errorf("capture panicked: %v", r))
			panic(r)
		}
		if err != nil {
			t.fail(err)
			return
		}
		t.finish(cr)
		c = cr.counts
	}()
	return trace.Counts{}, produce(cr)
}

// retain registers a replay cursor; the spill file stays alive until every
// cursor released.
func (t *Trace) retain() {
	t.mu.Lock()
	t.readers++
	t.mu.Unlock()
}

func (t *Trace) release() {
	t.mu.Lock()
	t.readers--
	if t.dropped && t.readers == 0 {
		t.closeSpillLocked()
	}
	t.mu.Unlock()
}

// markDropped detaches the trace from the engine's accounting and removes
// its spill file once the last cursor is done.
func (t *Trace) markDropped() {
	t.mu.Lock()
	if !t.dropped {
		t.dropped = true
		t.e.mem.Add(-t.memBytes)
		t.e.obsMem.Set(t.e.mem.Load())
		t.memBytes = 0
	}
	if t.readers == 0 {
		t.closeSpillLocked()
	}
	t.mu.Unlock()
}

// closeSpillLocked releases the spill file: normally deleted, but renamed
// into the quarantine directory when a corrupt chunk was found in it. While
// the capture goroutine may still be appending (capturing), the close is
// deferred to captureEndedLocked.
func (t *Trace) closeSpillLocked() {
	if t.spill == nil || t.capturing {
		return
	}
	fs := t.e.fs
	name := t.spill.Name()
	t.spill.Close()
	t.spill = nil
	if t.quarantined && t.e.quarDir != "" {
		if err := fs.MkdirAll(t.e.quarDir, 0o755); err == nil {
			dst := filepath.Join(t.e.quarDir, filepath.Base(name))
			if err := fs.Rename(name, dst); err == nil {
				t.e.logef("replay: spill file quarantined as %s", dst)
				return
			}
		}
	}
	fs.Remove(name)
}

// chunkAt returns chunk i's decoded form, or else its encoded bytes and
// their checksum, waiting until the capture seals it. Spilled chunks are
// read into *buf, which is reused across calls. The second-to-last result
// is true when the stream ended before chunk i.
func (t *Trace) chunkAt(done <-chan struct{}, i int, buf *[]byte) ([]byte, uint32, *decoded, bool, error) {
	for {
		t.mu.Lock()
		if t.err != nil {
			err := t.err
			t.mu.Unlock()
			return nil, 0, nil, true, err
		}
		if i < len(t.chunks) {
			ck := t.chunks[i]
			t.mu.Unlock()
			if ck.dec != nil || ck.data != nil {
				return ck.data, ck.crc, ck.dec, false, nil
			}
			if cap(*buf) < ck.size {
				*buf = make([]byte, ck.size)
			}
			b := (*buf)[:ck.size]
			if _, err := t.spill.ReadAt(b, ck.off); err != nil {
				return nil, 0, nil, false, fmt.Errorf("replay: reading spilled chunk: %w", err)
			}
			return b, ck.crc, nil, false, nil
		}
		if t.done {
			t.mu.Unlock()
			return nil, 0, nil, true, nil
		}
		ch := t.notify
		t.mu.Unlock()
		select {
		case <-ch:
		case <-done:
			return nil, 0, nil, false, errCancelled
		}
	}
}

// errCancelled is an internal marker: chunkAt observed the caller's context
// expire. Replay converts it to the context's error.
var errCancelled = errors.New("replay: cancelled")

// Counts returns the captured stream's totals; valid once the capture
// finished successfully.
func (t *Trace) Counts() trace.Counts {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts
}

// Replay feeds the captured stream into rec, chunk by chunk, waiting for
// the capture to seal chunks it has not reached yet. It holds one of the
// engine's worker slots for its whole duration. A Stop panic raised by rec
// (cooperative cancellation, e.g. a sim.Runner built WithContext) is
// recovered and returned as its error; other panics propagate to the
// caller's guard.
func (t *Trace) Replay(ctx context.Context, rec trace.Recorder) (c trace.Counts, err error) {
	if err := t.e.acquireSlot(ctx); err != nil {
		return trace.Counts{}, err
	}
	defer t.e.releaseSlot()
	t.retain()
	defer t.release()
	defer func() {
		if r := recover(); r != nil {
			if stopErr, ok := trace.AsStop(r); ok {
				err = stopErr
				return
			}
			panic(r)
		}
	}()
	sink := trace.Blocks(rec)
	var bbuf trace.BlockBuf
	var buf []byte
	for i := 0; ; i++ {
		data, crc, dec, ended, err := t.chunkAt(ctx.Done(), i, &buf)
		if err != nil {
			if errors.Is(err, errCancelled) {
				err = ctx.Err()
			}
			return trace.Counts{}, err
		}
		if ended {
			// The capture finished cleanly, so the stream this replay fed
			// is the full one and the shared totals are its totals.
			return t.Counts(), nil
		}
		if dec != nil {
			// A decoded chunk never left memory: there is nothing to
			// decode and nothing for verification to catch.
			dec.feed(sink)
		} else {
			if verr := trace.Verify(data, crc); verr != nil {
				t.quarantine(i, data, crc, verr)
				return trace.Counts{}, t.failCorrupt(verr)
			}
			d0 := time.Now()
			if err := trace.DecodeChunkBlocks(data, sink, &bbuf); err != nil {
				if errors.Is(err, trace.ErrCorrupt) {
					// The checksum passed but the records no longer
					// parse: same corruption policy, same recovery.
					t.quarantine(i, data, crc, err)
					return trace.Counts{}, t.failCorrupt(err)
				}
				return trace.Counts{}, err
			}
			t.e.obsChunkDecode.Observe(time.Since(d0))
		}
		t.e.obsChunksReplayed.Add(1)
		// A chunk holds at most chunkEvents branches, the simulator's own
		// cancellation cadence — checking here keeps a recorder without its
		// own context responsive to the caller's.
		if err := ctx.Err(); err != nil {
			return trace.Counts{}, err
		}
	}
}

// WriteTo exports the captured stream as a version-3 (checksummed framed
// chunk) trace file readable by trace.NewReader, waiting for the capture to
// finish if it is still running. Decoded chunks are encoded and checksummed
// here; encoded ones are verified before export, so a corrupt spill
// surfaces here as an error, never as a silently poisoned file. It
// implements io.WriterTo.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	t.retain()
	defer t.release()
	var n int64
	k, err := w.Write(trace.FramedFileHeader())
	n += int64(k)
	if err != nil {
		return n, err
	}
	var buf, hdr []byte
	var cw trace.ChunkWriter
	for i := 0; ; i++ {
		data, crc, dec, ended, err := t.chunkAt(nil, i, &buf)
		if err != nil {
			return n, err
		}
		if ended {
			return n, nil
		}
		if dec != nil {
			data = dec.encode(&cw)
			crc = trace.Checksum(data)
		} else if verr := trace.Verify(data, crc); verr != nil {
			return n, verr
		}
		hdr = trace.AppendFrameHeader(hdr[:0], len(data), crc)
		k, err := w.Write(hdr)
		n += int64(k)
		if err != nil {
			return n, err
		}
		k, err = w.Write(data)
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
}
