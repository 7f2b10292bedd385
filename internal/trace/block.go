package trace

import "encoding/binary"

// Block decoding: the batch counterpart of DecodeChunk. Instead of one
// Recorder call per record, the decoder gathers decoded branches into
// parallel arrays and hands the sink whole blocks, so a consumer with a
// devirtualized kernel (sim.Runner over a predictor.BatchSim) pays no
// per-event dispatch. Straight-line instruction runs are attached to the
// branch that follows them — recorders accept Ops at any granularity, and
// the chunk writer already coalesces consecutive Ops calls into one record,
// so the delivered stream is semantically identical to DecodeChunk's.

// BlockSink consumes a decoded branch stream in blocks. The contract
// mirrors Recorder, block-wise: RunBlock delivers a run of branches in
// program order, where ops[i] straight-line instructions are charged
// immediately before the branch (pcs[i], taken[i]); the three slices have
// equal length and are reused by the decoder, so implementations must not
// retain them. Ops charges a straight-line run not followed by a branch in
// the same chunk (a trailing run, or one cut off by malformed input).
type BlockSink interface {
	RunBlock(pcs []uint64, taken []bool, ops []uint64)
	Ops(n uint64)
}

// SummedBlockSink is an optional BlockSink extension for feeders that
// already know a block's total straight-line instruction count — the
// replay engine's decoded chunks carry it, summed at capture time.
// RunBlockSummed is RunBlock with opsSum = sum(ops); implementations may
// trust it and skip their own pass over the ops array.
type SummedBlockSink interface {
	BlockSink
	RunBlockSummed(pcs []uint64, taken []bool, ops []uint64, opsSum uint64)
}

// DefaultBlockEvents is the block capacity DecodeChunkBlocks uses for a
// zero BlockBuf: large enough to amortize per-block overhead, small enough
// that the three event arrays stay cache-resident (~68KB).
const DefaultBlockEvents = 4096

// Batcher adapts a BlockSink to the Recorder interface: it buffers the
// per-event stream into parallel block arrays and hands the sink whole
// blocks, so an instrumented workload can feed a block-wise consumer — a
// sim.Runner with a devirtualized kernel — without two interface
// dispatches per branch. The delivered stream is exactly the recorded one:
// straight-line runs coalesce onto the branch that follows them (as the
// Recorder contract permits), and a trailing run is delivered by Flush as
// a bare Ops call, mirroring DecodeChunkBlocks. The block arrays are
// reused across flushes, so the sink must not retain them — the standard
// BlockSink contract.
type Batcher struct {
	sink    BlockSink
	pcs     []uint64
	taken   []bool
	ops     []uint64
	pending uint64
}

// NewBatcher returns a Batcher delivering blocks of up to blockEvents
// branches to sink; blockEvents <= 0 means DefaultBlockEvents.
func NewBatcher(sink BlockSink, blockEvents int) *Batcher {
	if blockEvents <= 0 {
		blockEvents = DefaultBlockEvents
	}
	return &Batcher{
		sink:  sink,
		pcs:   make([]uint64, 0, blockEvents),
		taken: make([]bool, 0, blockEvents),
		ops:   make([]uint64, 0, blockEvents),
	}
}

// Ops implements Recorder. Runs accumulate until the next branch or Flush.
func (b *Batcher) Ops(n uint64) { b.pending += n }

// Branch implements Recorder.
func (b *Batcher) Branch(pc uint64, taken bool) {
	b.pcs = append(b.pcs, pc)
	b.taken = append(b.taken, taken)
	b.ops = append(b.ops, b.pending)
	b.pending = 0
	if len(b.pcs) == cap(b.pcs) {
		b.flush()
	}
}

func (b *Batcher) flush() {
	if len(b.pcs) == 0 {
		return
	}
	b.sink.RunBlock(b.pcs, b.taken, b.ops)
	b.pcs, b.taken, b.ops = b.pcs[:0], b.taken[:0], b.ops[:0]
}

// Flush delivers everything buffered, including a trailing straight-line
// run. Call it when the stream ends; the Batcher stays usable afterwards,
// so a producer may keep recording and Flush again.
func (b *Batcher) Flush() {
	b.flush()
	if b.pending > 0 {
		b.sink.Ops(b.pending)
		b.pending = 0
	}
}

// BlockBuf holds the reusable decode arrays of DecodeChunkBlocks. The zero
// value is ready to use; keep one per replay cursor and pass it to every
// call so the arrays are allocated once.
type BlockBuf struct {
	// Max bounds the events per delivered block; 0 means
	// DefaultBlockEvents. Tests use small values to force block boundaries
	// at awkward offsets.
	Max int

	pcs   []uint64
	taken []bool
	ops   []uint64
}

// DecodeChunkBlocks replays one encoded chunk into sink, block-wise. It
// accepts exactly the inputs DecodeChunk accepts, delivers exactly the same
// event stream (with consecutive straight-line runs summed, as the Recorder
// contract permits), and returns exactly the same errors; on malformed
// input the sink has received every record before the malformed one. Panics
// raised by sink — e.g. a sim.Runner's cooperative-cancellation Stop —
// propagate to the caller.
func DecodeChunkBlocks(data []byte, sink BlockSink, buf *BlockBuf) error {
	maxEv := buf.Max
	if maxEv <= 0 {
		maxEv = DefaultBlockEvents
	}
	if cap(buf.pcs) < maxEv {
		buf.pcs = make([]uint64, 0, maxEv)
		buf.taken = make([]bool, 0, maxEv)
		buf.ops = make([]uint64, 0, maxEv)
	}
	pcs, tkn, ops := buf.pcs[:0], buf.taken[:0], buf.ops[:0]
	var pending uint64 // straight-line run awaiting its branch
	var lastPC uint64
	errOff, errWhat := 0, ""
	for i := 0; i < len(data); {
		// Record headers — which for delta branches are the whole record —
		// are one or two bytes on real streams; decode those inline and fall
		// back to the generic loop only for longer (or malformed) varints.
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
				errOff, errWhat = i, "record header"
				goto malformed
			}
			v = vv
			i += n
		}
		switch {
		case v >= chunkDelta:
			w := v - chunkDelta
			lastPC += uint64(unzigzag(w >> 1))
			pcs = append(pcs, lastPC)
			tkn = append(tkn, w&1 == 1)
			ops = append(ops, pending)
			pending = 0
			if len(pcs) == maxEv {
				sink.RunBlock(pcs, tkn, ops)
				pcs, tkn, ops = pcs[:0], tkn[:0], ops[:0]
			}
		case v == chunkOps:
			var c uint64
			if i < len(data) && data[i] < 0x80 {
				c = uint64(data[i])
				i++
			} else {
				cc, n := binary.Uvarint(data[i:])
				if n <= 0 {
					errOff, errWhat = i, "ops count"
					goto malformed
				}
				c = cc
				i += n
			}
			pending += c
		default: // chunkAbs
			pc, n := binary.Uvarint(data[i:])
			if n <= 0 {
				errOff, errWhat = i, "absolute branch pc"
				goto malformed
			}
			i += n
			t, n := binary.Uvarint(data[i:])
			if n <= 0 || t > 1 {
				errOff, errWhat = i, "absolute branch outcome"
				goto malformed
			}
			i += n
			lastPC = pc
			pcs = append(pcs, pc)
			tkn = append(tkn, t == 1)
			ops = append(ops, pending)
			pending = 0
			if len(pcs) == maxEv {
				sink.RunBlock(pcs, tkn, ops)
				pcs, tkn, ops = pcs[:0], tkn[:0], ops[:0]
			}
		}
	}
	if len(pcs) > 0 {
		sink.RunBlock(pcs, tkn, ops)
	}
	if pending > 0 {
		sink.Ops(pending)
	}
	// Keep the (possibly grown) arrays for the next chunk.
	buf.pcs, buf.taken, buf.ops = pcs, tkn, ops
	return nil

malformed:
	// Prefix delivery: everything decoded before the malformed record has
	// reached the sink when the error returns, exactly like DecodeChunk.
	if len(pcs) > 0 {
		sink.RunBlock(pcs, tkn, ops)
	}
	if pending > 0 {
		sink.Ops(pending)
	}
	buf.pcs, buf.taken, buf.ops = pcs, tkn, ops
	return malformedChunk(errOff, errWhat)
}
