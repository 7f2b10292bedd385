package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// flatSink is a BlockSink that flattens delivered blocks back into a
// normalized event stream: one entry per branch carrying the straight-line
// run charged before it, plus a trailing run. Copying matters — the decoder
// reuses the block arrays.
type flatSink struct {
	pcs   []uint64
	taken []bool
	ops   []uint64
	tail  uint64
}

func (s *flatSink) RunBlock(pcs []uint64, taken []bool, ops []uint64) {
	// A block may arrive after a bare Ops call only at stream end, so any
	// accumulated tail before a block is a contract violation worth loud
	// failure in tests.
	if s.tail != 0 {
		panic("flatSink: RunBlock after a trailing Ops")
	}
	s.pcs = append(s.pcs, pcs...)
	s.taken = append(s.taken, taken...)
	s.ops = append(s.ops, ops...)
}

func (s *flatSink) Ops(n uint64) { s.tail += n }

// flatRecorder normalizes a per-event Recorder stream the same way, so the
// two decoders compare on semantics rather than Ops-call granularity (the
// Recorder contract lets producers split or coalesce straight-line runs).
type flatRecorder struct {
	flat    flatSink
	pending uint64
}

func (r *flatRecorder) Branch(pc uint64, taken bool) {
	r.flat.pcs = append(r.flat.pcs, pc)
	r.flat.taken = append(r.flat.taken, taken)
	r.flat.ops = append(r.flat.ops, r.pending)
	r.pending = 0
}

func (r *flatRecorder) Ops(n uint64) { r.pending += n }

func (r *flatRecorder) stream() *flatSink {
	r.flat.tail += r.pending
	r.pending = 0
	return &r.flat
}

func sameStream(t *testing.T, label string, got, want *flatSink) {
	t.Helper()
	if len(got.pcs) != len(want.pcs) {
		t.Fatalf("%s: %d branches, want %d", label, len(got.pcs), len(want.pcs))
	}
	for i := range got.pcs {
		if got.pcs[i] != want.pcs[i] || got.taken[i] != want.taken[i] || got.ops[i] != want.ops[i] {
			t.Fatalf("%s: event %d = (%#x,%v,+%d), want (%#x,%v,+%d)", label, i,
				got.pcs[i], got.taken[i], got.ops[i], want.pcs[i], want.taken[i], want.ops[i])
		}
	}
	if got.tail != want.tail {
		t.Fatalf("%s: trailing ops %d, want %d", label, got.tail, want.tail)
	}
}

// encodeEvents runs an event sequence through a ChunkWriter and returns the
// single chunk.
func encodeEvents(in []event) []byte {
	var w ChunkWriter
	for _, e := range in {
		if e.br {
			w.Branch(e.pc, e.taken)
		} else {
			w.Ops(e.ops)
		}
	}
	return w.Cut()
}

// blockTestStreams is the valid-chunk corpus shared by the differential
// tests: edge shapes (empty, ops-only, single branch) plus generated
// streams with delta, absolute-escape and coalescing records.
func blockTestStreams() [][]event {
	streams := [][]event{
		nil,
		{{ops: 7}},
		{{pc: 0x1_2000_0000, taken: true, br: true}},
		{
			{ops: 3},
			{pc: 0x1_2000_0000, taken: true, br: true},
			{ops: 1}, {ops: 2}, // coalesced by the writer
			{pc: 0x1_2000_0010, taken: false, br: true},
			{pc: math.MaxUint64, taken: true, br: true}, // absolute escape
			{pc: 4, taken: false, br: true},
			{ops: 9}, // trailing run
		},
	}
	var gen []event
	pc := uint64(0x1_2000_0000)
	s := uint64(99)
	for i := 0; i < 13_000; i++ {
		s = s*6364136223846793005 + 1442695040888963407
		if s%5 == 0 {
			gen = append(gen, event{ops: s % 300})
		} else {
			pc += (s >> 32 % 64) * 4
			gen = append(gen, event{pc: pc, taken: s>>60%2 == 0, br: true})
		}
	}
	return append(streams, gen)
}

// TestDecodeChunkBlocksMatchesDecodeChunk is the decoder differential: for
// valid chunks of every shape, and for every block capacity including sizes
// that land boundaries at awkward offsets, the block decoder must deliver
// exactly the stream DecodeChunk delivers.
func TestDecodeChunkBlocksMatchesDecodeChunk(t *testing.T) {
	for si, in := range blockTestStreams() {
		data := encodeEvents(in)
		var ref flatRecorder
		if err := DecodeChunk(data, &ref); err != nil {
			t.Fatalf("stream %d: DecodeChunk: %v", si, err)
		}
		want := ref.stream()
		for _, maxEv := range []int{1, 2, 3, 7, 100, DefaultBlockEvents} {
			var got flatSink
			buf := BlockBuf{Max: maxEv}
			if err := DecodeChunkBlocks(data, &got, &buf); err != nil {
				t.Fatalf("stream %d max %d: DecodeChunkBlocks: %v", si, maxEv, err)
			}
			sameStream(t, testLabel(si, maxEv), &got, want)
		}
	}
}

func testLabel(si, maxEv int) string {
	return "stream " + string(rune('0'+si)) + " max " + string(rune('0'+maxEv%10))
}

// TestDecodeChunkBlocksMalformed locks the error contract to DecodeChunk's:
// for every truncation and a corpus of corrupt inputs, both decoders must
// return the same error (or both succeed) and the block decoder must have
// delivered exactly the prefix the scalar decoder delivered.
func TestDecodeChunkBlocksMalformed(t *testing.T) {
	valid := encodeEvents(blockTestStreams()[3])
	inputs := [][]byte{
		bytes.Repeat([]byte{0x80}, 12),      // unterminated varint
		{chunkOps},                          // ops record missing its count
		{chunkAbs, 0x90},                    // absolute pc truncated
		{chunkAbs, 0x10, 0x05},              // outcome > 1
		append([]byte{5, 9}, 0x80),          // valid deltas then truncation
		binary.AppendUvarint(nil, 1<<40|17), // overlong header value
	}
	for cut := 0; cut <= len(valid); cut++ {
		inputs = append(inputs, valid[:cut])
	}
	for ii, data := range inputs {
		var ref flatRecorder
		refErr := DecodeChunk(data, &ref)
		want := ref.stream()
		for _, maxEv := range []int{1, 3, DefaultBlockEvents} {
			var got flatSink
			buf := BlockBuf{Max: maxEv}
			gotErr := DecodeChunkBlocks(data, &got, &buf)
			if (gotErr == nil) != (refErr == nil) ||
				(gotErr != nil && gotErr.Error() != refErr.Error()) {
				t.Fatalf("input %d max %d: error %v, DecodeChunk says %v", ii, maxEv, gotErr, refErr)
			}
			if gotErr != nil && !errors.Is(gotErr, ErrMalformedChunk) {
				t.Fatalf("input %d: error %v does not wrap ErrMalformedChunk", ii, gotErr)
			}
			sameStream(t, "prefix", &got, want)
		}
	}
}

// TestBatcherEncodesIdentically is the round-trip identity for the two
// adapters between Recorder and BlockSink: recording a stream through a
// Batcher whose sink is Blocks over a second ChunkWriter, which unrolls
// each block back into events, must produce the exact bytes of recording
// into a ChunkWriter directly — the strongest possible statement that
// batching and unrolling preserve the stream.
func TestBatcherEncodesIdentically(t *testing.T) {
	for si, in := range blockTestStreams() {
		want := encodeEvents(in)
		for _, blockEvents := range []int{1, 3, 64, 0} {
			var rw ChunkWriter
			b := NewBatcher(Blocks(&rw), blockEvents)
			for _, e := range in {
				if e.br {
					b.Branch(e.pc, e.taken)
				} else {
					b.Ops(e.ops)
				}
			}
			b.Flush()
			if got := rw.Cut(); !bytes.Equal(got, want) {
				t.Fatalf("stream %d blockEvents %d: re-encoded bytes differ (%d vs %d bytes)",
					si, blockEvents, len(got), len(want))
			}
			// The Batcher must stay usable after Flush.
			b.Branch(0x1000, true)
			b.Flush()
			if rw.Cut() == nil {
				t.Fatalf("stream %d: Batcher dead after Flush", si)
			}
		}
	}
}

// blockRecorder is a Recorder that also takes blocks; its Branch must
// never be reached through Blocks.
type blockRecorder struct{ flatSink }

func (*blockRecorder) Branch(uint64, bool) { panic("Branch called on a block sink") }

// TestBlocksKeepsBlockSinks checks that Blocks hands a recorder that
// already takes blocks back unchanged, so it is never fed per event.
func TestBlocksKeepsBlockSinks(t *testing.T) {
	r := &blockRecorder{}
	if got := Blocks(r); got != BlockSink(r) {
		t.Fatalf("Blocks wrapped a BlockSink: got %T", got)
	}
}

// TestBatcherBlockBoundaries pins the delivery geometry: a capacity-k
// Batcher delivers full blocks of exactly k events as soon as the k-th
// branch is recorded, and Flush delivers the partial remainder plus any
// trailing straight-line run as a bare Ops call.
func TestBatcherBlockBoundaries(t *testing.T) {
	var sizes []int
	var tail uint64
	sink := &funcSink{
		run: func(pcs []uint64, taken []bool, ops []uint64) { sizes = append(sizes, len(pcs)) },
		ops: func(n uint64) { tail += n },
	}
	b := NewBatcher(sink, 3)
	for i := 0; i < 8; i++ {
		b.Branch(uint64(0x1000+4*i), i%2 == 0)
	}
	b.Ops(41)
	b.Flush()
	if want := []int{3, 3, 2}; len(sizes) != 3 || sizes[0] != 3 || sizes[1] != 3 || sizes[2] != 2 {
		t.Fatalf("block sizes %v, want %v", sizes, want)
	}
	if tail != 41 {
		t.Fatalf("trailing ops %d, want 41", tail)
	}
	// Flush on an empty Batcher delivers nothing.
	sizes, tail = nil, 0
	b.Flush()
	if len(sizes) != 0 || tail != 0 {
		t.Fatalf("empty Flush delivered %v blocks, %d tail ops", sizes, tail)
	}
}

type funcSink struct {
	run func(pcs []uint64, taken []bool, ops []uint64)
	ops func(n uint64)
}

func (s *funcSink) RunBlock(pcs []uint64, taken []bool, ops []uint64) { s.run(pcs, taken, ops) }
func (s *funcSink) Ops(n uint64)                                      { s.ops(n) }
