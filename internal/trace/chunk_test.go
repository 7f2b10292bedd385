package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// event is one recorded call, for comparing streams in tests.
type event struct {
	pc    uint64
	taken bool
	ops   uint64
	br    bool
}

// eventLog records the exact call sequence a Recorder receives.
type eventLog struct{ events []event }

func (l *eventLog) Branch(pc uint64, taken bool) {
	l.events = append(l.events, event{pc: pc, taken: taken, br: true})
}

func (l *eventLog) Ops(n uint64) { l.events = append(l.events, event{ops: n}) }

// totals sums the log the way every real Recorder does.
func (l *eventLog) totals() Counts {
	var c Counts
	for _, e := range l.events {
		if e.br {
			c.Branch(e.pc, e.taken)
		} else {
			c.Ops(e.ops)
		}
	}
	return c
}

// branches extracts the branch subsequence.
func (l *eventLog) branches() []event {
	var out []event
	for _, e := range l.events {
		if e.br {
			out = append(out, e)
		}
	}
	return out
}

func TestChunkRoundTrip(t *testing.T) {
	var w ChunkWriter
	in := []event{
		{pc: 0x1_2000_0000, taken: true, br: true},
		{ops: 7},
		{ops: 3}, // coalesces with the previous record
		{pc: 0x1_2000_0010, taken: false, br: true},
		{pc: 0, taken: true, br: true},              // delta to zero
		{pc: math.MaxUint64, taken: true, br: true}, // escape: huge delta
		{pc: math.MaxUint64, taken: false, br: true},
		{ops: 1 << 40},
		{pc: 1 << 63, taken: true, br: true}, // escape again
	}
	for _, e := range in {
		if e.br {
			w.Branch(e.pc, e.taken)
		} else {
			w.Ops(e.ops)
		}
	}
	var got eventLog
	if err := DecodeChunk(w.Cut(), &got); err != nil {
		t.Fatal(err)
	}
	// Branch sequence must be preserved exactly.
	wantLog := &eventLog{events: in}
	wantBr, gotBr := wantLog.branches(), got.branches()
	if len(wantBr) != len(gotBr) {
		t.Fatalf("branch count: got %d, want %d", len(gotBr), len(wantBr))
	}
	for i := range wantBr {
		if wantBr[i] != gotBr[i] {
			t.Errorf("branch %d: got %+v, want %+v", i, gotBr[i], wantBr[i])
		}
	}
	// Ops may coalesce, but the totals must match.
	if got.totals() != wantLog.totals() {
		t.Errorf("totals: got %+v, want %+v", got.totals(), wantLog.totals())
	}
}

// TestChunkSelfContained proves a chunk decodes correctly without the PC
// state of its predecessors: the first branch of every chunk is absolute.
func TestChunkSelfContained(t *testing.T) {
	var w ChunkWriter
	w.Branch(0x4000, true)
	w.Branch(0x4008, false)
	first := w.Cut()
	w.Branch(0x4010, true) // delta from 0x4008 across the cut
	w.Branch(0x4018, true)
	second := w.Cut()
	if first == nil || second == nil {
		t.Fatal("expected two non-empty chunks")
	}
	var got eventLog
	if err := DecodeChunk(second, &got); err != nil {
		t.Fatal(err)
	}
	want := []event{{pc: 0x4010, taken: true, br: true}, {pc: 0x4018, taken: true, br: true}}
	if len(got.events) != 2 || got.events[0] != want[0] || got.events[1] != want[1] {
		t.Errorf("standalone second chunk: got %+v, want %+v", got.events, want)
	}
}

func TestChunkCutEmpty(t *testing.T) {
	var w ChunkWriter
	if c := w.Cut(); c != nil {
		t.Errorf("empty Cut: got %d bytes, want nil", len(c))
	}
	w.Branch(4, true)
	w.Cut()
	if c := w.Cut(); c != nil {
		t.Errorf("second Cut: got %d bytes, want nil", len(c))
	}
}

func TestDecodeChunkMalformed(t *testing.T) {
	overlong := bytes.Repeat([]byte{0x80}, 11) // uvarint longer than 64 bits
	cases := map[string][]byte{
		"truncated header":       {0x80},
		"overlong header":        overlong,
		"ops without count":      {chunkOps},
		"ops truncated count":    {chunkOps, 0x80},
		"abs without pc":         {chunkAbs},
		"abs truncated pc":       {chunkAbs, 0x80},
		"abs without outcome":    {chunkAbs, 0x10},
		"abs outcome out of set": {chunkAbs, 0x10, 0x02},
	}
	for name, data := range cases {
		if err := DecodeChunk(data, Discard); !errors.Is(err, ErrMalformedChunk) {
			t.Errorf("%s: got %v, want ErrMalformedChunk", name, err)
		}
	}
	if err := DecodeChunk(nil, Discard); err != nil {
		t.Errorf("empty chunk: got %v, want nil", err)
	}
}

// twoChunkFile records a short stream as two ChunkWriter chunks and frames
// them behind FramedFileHeader, the way the replay engine exports a trace.
// It returns the file, both raw chunks and the recorded call sequence.
func twoChunkFile() (file, first, second []byte, want *eventLog) {
	var w ChunkWriter
	want = &eventLog{}
	rec := Tee(want, &w)
	rec.Branch(0x8000, true)
	rec.Ops(12)
	rec.Branch(0x8004, false)
	first = w.Cut()
	rec.Ops(3)
	rec.Branch(1<<62, true) // large jump, still lossless
	second = w.Cut()
	file = AppendFrame(AppendFrame(FramedFileHeader(), first), second)
	return file, first, second, want
}

// TestChunkFileReader proves the spill/export framing: ChunkWriter chunks
// framed behind FramedFileHeader are a trace file NewReader replays, call
// for call.
func TestChunkFileReader(t *testing.T) {
	file, _, _, want := twoChunkFile()
	r, err := NewReader(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	var got eventLog
	if _, err := r.Replay(&got); err != nil {
		t.Fatal(err)
	}
	wantBr, gotBr := want.branches(), got.branches()
	if len(wantBr) != len(gotBr) {
		t.Fatalf("branch count: got %d, want %d", len(gotBr), len(wantBr))
	}
	for i := range wantBr {
		if wantBr[i] != gotBr[i] {
			t.Errorf("branch %d: got %+v, want %+v", i, gotBr[i], wantBr[i])
		}
	}
	if got.totals() != want.totals() {
		t.Errorf("totals: got %+v, want %+v", got.totals(), want.totals())
	}
}

// fuzzEvents derives a deterministic event sequence from raw fuzz bytes:
// 9 bytes per event — a kind byte and a 64-bit payload.
func fuzzEvents(data []byte) []event {
	var out []event
	for len(data) >= 9 {
		kind, payload := data[0], binary.LittleEndian.Uint64(data[1:9])
		data = data[9:]
		if kind%3 == 0 {
			out = append(out, event{ops: payload})
		} else {
			out = append(out, event{pc: payload, taken: kind%2 == 1, br: true})
		}
	}
	return out
}

// FuzzChunkRoundTrip proves encode→decode is lossless for arbitrary
// (PC, taken) sequences — including PCs above 2^60, which the version-1
// file format would truncate — across chunk cuts at arbitrary points.
func FuzzChunkRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	seed := make([]byte, 0, 64)
	for _, e := range []event{
		{pc: 0x1_2000_0000, taken: true, br: true},
		{ops: 42},
		{pc: math.MaxUint64, taken: false, br: true},
		{pc: 1 << 61, taken: true, br: true},
	} {
		var b [9]byte
		if e.br {
			b[0] = 1
			if !e.taken {
				b[0] = 5
			}
			binary.LittleEndian.PutUint64(b[1:], e.pc)
		} else {
			b[0] = 0
			binary.LittleEndian.PutUint64(b[1:], e.ops)
		}
		seed = append(seed, b[:]...)
	}
	f.Add(seed, uint8(2))

	f.Fuzz(func(t *testing.T, data []byte, cutEvery uint8) {
		in := fuzzEvents(data)
		var w ChunkWriter
		var chunks [][]byte
		for i, e := range in {
			if e.br {
				w.Branch(e.pc, e.taken)
			} else {
				w.Ops(e.ops)
			}
			if cutEvery > 0 && (i+1)%int(cutEvery) == 0 {
				if c := w.Cut(); c != nil {
					chunks = append(chunks, c)
				}
			}
		}
		if c := w.Cut(); c != nil {
			chunks = append(chunks, c)
		}
		var got eventLog
		for _, c := range chunks {
			if err := DecodeChunk(c, &got); err != nil {
				t.Fatalf("decode: %v", err)
			}
		}
		want := &eventLog{events: in}
		wantBr, gotBr := want.branches(), got.branches()
		if len(wantBr) != len(gotBr) {
			t.Fatalf("branch count: got %d, want %d", len(gotBr), len(wantBr))
		}
		for i := range wantBr {
			if wantBr[i] != gotBr[i] {
				t.Fatalf("branch %d: got %+v, want %+v", i, gotBr[i], wantBr[i])
			}
		}
		if got.totals() != want.totals() {
			t.Fatalf("totals: got %+v, want %+v", got.totals(), want.totals())
		}
	})
}

// FuzzDecodeChunk feeds arbitrary bytes to the chunk decoder: it must
// return an error or succeed, never panic. The corpus seeds valid chunks
// plus bit-flipped mutants of them — the raw decoder has no checksum, so a
// mutant may decode into a different-but-valid stream; the invariant here
// is purely "no panic, no hang" (FuzzDecodeFramedChunk holds the stronger
// detect-or-decode-identically property the framed format adds).
func FuzzDecodeChunk(f *testing.F) {
	var w ChunkWriter
	w.Branch(0x1_2000_0000, true)
	w.Ops(9)
	w.Branch(0x1_2000_0008, false)
	valid := w.Cut()
	f.Add(valid)
	f.Add([]byte{chunkAbs, 0x10, 0x02})
	f.Add(bytes.Repeat([]byte{0x80}, 16))
	// bit-flip corruption corpus: every single-bit mutant of the valid chunk
	for bit := 0; bit < len(valid)*8; bit++ {
		mutant := append([]byte(nil), valid...)
		mutant[bit/8] ^= 1 << (bit % 8)
		f.Add(mutant)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var c Counts
		_ = DecodeChunk(data, &c)
	})
}

// FuzzDecodeFramedChunk is the framed decoder's corruption contract: for an
// arbitrary event stream, flipping any single bit of its encoded frame must
// yield an error wrapping ErrCorrupt — never a panic, and never a silently
// different record stream. With no flip, decode must reproduce the stream
// exactly.
func FuzzDecodeFramedChunk(f *testing.F) {
	f.Add([]byte{}, uint32(0))
	seed := make([]byte, 0, 64)
	for _, e := range []event{
		{pc: 0x1_2000_0000, taken: true, br: true},
		{ops: 42},
		{pc: math.MaxUint64, taken: false, br: true},
	} {
		var b [9]byte
		if e.br {
			b[0] = 1
			if !e.taken {
				b[0] = 5
			}
			binary.LittleEndian.PutUint64(b[1:], e.pc)
		} else {
			binary.LittleEndian.PutUint64(b[1:], e.ops)
		}
		seed = append(seed, b[:]...)
	}
	f.Add(seed, uint32(17))
	f.Add(seed, uint32(0))

	f.Fuzz(func(t *testing.T, data []byte, flip uint32) {
		in := fuzzEvents(data)
		var w ChunkWriter
		for _, e := range in {
			if e.br {
				w.Branch(e.pc, e.taken)
			} else {
				w.Ops(e.ops)
			}
		}
		payload := w.Cut()
		frame := AppendFrame(nil, payload)

		// Pristine decode reproduces the stream.
		var got eventLog
		if err := decodeFramedChunk(frame, &got); err != nil {
			t.Fatalf("pristine frame: %v", err)
		}
		want := &eventLog{events: in}
		wantBr, gotBr := want.branches(), got.branches()
		if len(wantBr) != len(gotBr) {
			t.Fatalf("branch count: got %d, want %d", len(gotBr), len(wantBr))
		}
		for i := range wantBr {
			if wantBr[i] != gotBr[i] {
				t.Fatalf("branch %d: got %+v, want %+v", i, gotBr[i], wantBr[i])
			}
		}
		if got.totals() != want.totals() {
			t.Fatalf("totals: got %+v, want %+v", got.totals(), want.totals())
		}

		// Any single-bit flip is detected: CRC32C catches all 1-bit errors,
		// and a flip inside the length varint either breaks the frame bound
		// or the checksum.
		bit := int(flip) % (len(frame) * 8)
		mutated := append([]byte(nil), frame...)
		mutated[bit/8] ^= 1 << (bit % 8)
		var rec Counts
		if err := decodeFramedChunk(mutated, &rec); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bit flip at %d: err = %v, want ErrCorrupt", bit, err)
		}
	})
}
