package trace

import (
	"encoding/binary"
	"fmt"
)

// Chunk encoding (the records inside a trace file's frames).
//
// A chunk is a byte slice holding a run of uvarint records:
//
//	0, n        — an Ops record charging n straight-line instructions
//	1, pc, t    — an absolute branch at pc with outcome t (0 or 1)
//	v ≥ 2       — a delta branch: w = v-2, taken = w&1,
//	              pc = previous branch PC + unzigzag(w>>1)
//
// Chunks are self-contained: a ChunkWriter emits the first branch of every
// chunk in absolute form, so a chunk decodes without the PC state of its
// predecessors, replay cursors can pick up a stream mid-way, and any
// concatenation of chunks — including a suffix of a spilled stream — is
// itself a valid record stream. The absolute form doubles as the overflow
// escape: a delta whose zig-zag needs more than 62 bits (only adversarial
// PC walks) is stored absolutely, which keeps the encoding lossless over
// the full 64-bit address space.
//
// Consecutive Ops calls are coalesced into one record. Recorders only ever
// sum instruction counts between branches, so every downstream total is
// unchanged; what is not preserved is the exact number of Ops calls.

const (
	chunkOps = 0 // followed by the instruction count
	chunkAbs = 1 // followed by the PC and the outcome bit
	// values ≥ chunkDelta encode a delta branch
	chunkDelta = 2
)

// maxDeltaZig is the largest zig-zagged delta that still fits a delta
// branch record; anything larger is stored in absolute form.
const maxDeltaZig = uint64(1)<<62 - 1

// appendUvarint is binary.AppendUvarint with the one- and two-byte cases —
// nearly every record header, delta and ops count on real streams — inlined
// ahead of the generic loop. The emitted bytes are identical.
func appendUvarint(buf []byte, v uint64) []byte {
	if v < 1<<7 {
		return append(buf, byte(v))
	}
	if v < 1<<14 {
		return append(buf, byte(v)|0x80, byte(v>>7))
	}
	return binary.AppendUvarint(buf, v)
}

// ErrMalformedChunk is returned by DecodeChunk for input that is not a
// valid chunk: a truncated or overlong varint, or an impossible field. It
// wraps ErrCorrupt, so callers handling corruption generically can match
// either sentinel with errors.Is.
var ErrMalformedChunk = fmt.Errorf("%w: malformed chunk", ErrCorrupt)

// ChunkWriter encodes a branch stream into self-contained chunks. It
// implements Recorder; call Cut to take the bytes encoded so far and start
// a new chunk. The zero value is ready to use.
type ChunkWriter struct {
	buf     []byte
	lastPC  uint64
	pending uint64
	rel     bool // a delta branch may be emitted; false at chunk start
}

// Ops implements Recorder. Counts accumulate until the next branch or Cut.
func (w *ChunkWriter) Ops(n uint64) { w.pending += n }

// Branch implements Recorder.
func (w *ChunkWriter) Branch(pc uint64, taken bool) {
	w.flushOps()
	t := uint64(0)
	if taken {
		t = 1
	}
	if w.rel {
		if zz := zigzag(int64(pc - w.lastPC)); zz <= maxDeltaZig {
			w.buf = appendUvarint(w.buf, chunkDelta+(zz<<1|t))
			w.lastPC = pc
			return
		}
	}
	w.buf = append(w.buf, chunkAbs)
	w.buf = appendUvarint(w.buf, pc)
	w.buf = append(w.buf, byte(t))
	w.rel = true
	w.lastPC = pc
}

func (w *ChunkWriter) flushOps() {
	if w.pending == 0 {
		return
	}
	w.buf = append(w.buf, chunkOps)
	w.buf = appendUvarint(w.buf, w.pending)
	w.pending = 0
}

// Len reports the encoded bytes buffered so far, excluding any Ops counts
// still coalescing (they are flushed by the next Branch or Cut).
func (w *ChunkWriter) Len() int { return len(w.buf) }

// Cut flushes pending Ops and returns the finished chunk, or nil when
// nothing was recorded since the last Cut. The writer keeps its PC state
// but starts the next chunk with a fresh backing array and an absolute
// first branch, so the returned slice is never written to again.
func (w *ChunkWriter) Cut() []byte {
	w.flushOps()
	if len(w.buf) == 0 {
		return nil
	}
	out := w.buf
	// Pre-size the next chunk from this one: steady-state producers cut at a
	// fixed threshold, so the next chunk's size is known and the per-record
	// appends skip their growth copies.
	w.buf = make([]byte, 0, len(out)+len(out)/8)
	w.rel = false
	return out
}

func malformedChunk(off int, what string) error {
	return fmt.Errorf("%w: %s at offset %d", ErrMalformedChunk, what, off)
}

// DecodeChunk replays one encoded chunk into rec. Malformed input returns
// an error (never a panic); rec may have received a prefix of the chunk by
// then. Panics raised by rec — e.g. a sim.Runner's cooperative-cancellation
// Stop — propagate to the caller.
func DecodeChunk(data []byte, rec Recorder) error {
	var lastPC uint64
	for i := 0; i < len(data); {
		// One- and two-byte headers (nearly every record) decode inline;
		// the generic loop handles longer and malformed varints.
		var v uint64
		if b := data[i]; b < 0x80 {
			v = uint64(b)
			i++
		} else if i+1 < len(data) && data[i+1] < 0x80 {
			v = uint64(b&0x7f) | uint64(data[i+1])<<7
			i += 2
		} else {
			vv, n := binary.Uvarint(data[i:])
			if n <= 0 {
				return malformedChunk(i, "record header")
			}
			v = vv
			i += n
		}
		switch v {
		case chunkOps:
			c, n := binary.Uvarint(data[i:])
			if n <= 0 {
				return malformedChunk(i, "ops count")
			}
			i += n
			rec.Ops(c)
		case chunkAbs:
			pc, n := binary.Uvarint(data[i:])
			if n <= 0 {
				return malformedChunk(i, "absolute branch pc")
			}
			i += n
			t, n := binary.Uvarint(data[i:])
			if n <= 0 || t > 1 {
				return malformedChunk(i, "absolute branch outcome")
			}
			i += n
			lastPC = pc
			rec.Branch(pc, t == 1)
		default:
			w := v - chunkDelta
			lastPC += uint64(unzigzag(w >> 1))
			rec.Branch(lastPC, w&1 == 1)
		}
	}
	return nil
}
