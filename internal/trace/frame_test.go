package trace

import (
	"bytes"
	"errors"
	"testing"
)

// framedFile is a trace file holding one frame per payload, the way the
// replay engine spills and exports a trace.
func framedFile(payloads ...[]byte) []byte {
	file := FramedFileHeader()
	for _, p := range payloads {
		file = AppendFrame(file, p)
	}
	return file
}

// replayFile replays a trace file into rec through the reader production
// uses, returning the first error: a bad header, a failed frame or a
// malformed chunk.
func replayFile(file []byte, rec Recorder) error {
	r, err := NewReader(bytes.NewReader(file))
	if err != nil {
		return err
	}
	_, err = r.Replay(rec)
	return err
}

// testChunk encodes a small branch stream and returns the raw chunk and
// the recorded call sequence.
func testChunk(t *testing.T) ([]byte, *eventLog) {
	t.Helper()
	var w ChunkWriter
	want := &eventLog{}
	rec := Tee(want, &w)
	rec.Branch(0x1_2000_0000, true)
	rec.Ops(12)
	rec.Branch(0x1_2000_0010, false)
	rec.Branch(0x1_2000_0004, true)
	c := w.Cut()
	if c == nil {
		t.Fatal("empty chunk")
	}
	return c, want
}

func TestFrameRoundTrip(t *testing.T) {
	payload, want := testChunk(t)
	var got eventLog
	if err := replayFile(framedFile(payload), &got); err != nil {
		t.Fatal(err)
	}
	sameEvents(t, &got, want)
	// Two concatenated frames replay in sequence.
	twice := &eventLog{events: append(append([]event(nil), want.events...), want.events...)}
	got = eventLog{}
	if err := replayFile(framedFile(payload, payload), &got); err != nil {
		t.Fatal(err)
	}
	sameEvents(t, &got, twice)
}

// TestFrameDetectsEverySingleBitFlip flips each bit of a frame in turn: the
// reader reports ErrCorrupt and delivers none of the frame's events.
func TestFrameDetectsEverySingleBitFlip(t *testing.T) {
	payload, _ := testChunk(t)
	file := framedFile(payload)
	head := len(FramedFileHeader())
	if err := replayFile(file, Discard); err != nil {
		t.Fatalf("pristine frame: %v", err)
	}
	for bit := head * 8; bit < len(file)*8; bit++ {
		mutated := append([]byte(nil), file...)
		mutated[bit/8] ^= 1 << (bit % 8)
		var rec eventLog
		err := replayFile(mutated, &rec)
		if err == nil {
			t.Fatalf("bit flip at %d went undetected", bit-head*8)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bit flip at %d: err = %v, want ErrCorrupt", bit-head*8, err)
		}
		if len(rec.events) != 0 {
			t.Fatalf("bit flip at %d: %d events of the corrupt frame delivered", bit-head*8, len(rec.events))
		}
	}
}

// TestFrameTornTail cuts a file at every byte inside its frame: each cut is
// corruption, not a clean end of the trace.
func TestFrameTornTail(t *testing.T) {
	payload, _ := testChunk(t)
	file := framedFile(payload)
	head := len(FramedFileHeader())
	for cut := head + 1; cut < len(file); cut++ {
		err := replayFile(file[:cut], Discard)
		if err == nil {
			t.Fatalf("torn frame of %d/%d bytes accepted", cut-head, len(file)-head)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("torn frame of %d bytes: err = %v, want ErrCorrupt", cut-head, err)
		}
	}
}

func TestVerify(t *testing.T) {
	payload, _ := testChunk(t)
	if err := Verify(payload, Checksum(payload)); err != nil {
		t.Fatal(err)
	}
	if err := Verify(payload, Checksum(payload)+1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad crc: err = %v, want ErrCorrupt", err)
	}
}

// TestMalformedChunkIsCorrupt pins the sentinel relationship: structural
// chunk corruption matches ErrCorrupt too, so quarantine policies need one
// errors.Is check.
func TestMalformedChunkIsCorrupt(t *testing.T) {
	if !errors.Is(ErrMalformedChunk, ErrCorrupt) {
		t.Fatal("ErrMalformedChunk does not wrap ErrCorrupt")
	}
	err := DecodeChunk([]byte{0x80}, Discard)
	if !errors.Is(err, ErrCorrupt) || !errors.Is(err, ErrMalformedChunk) {
		t.Fatalf("structural error %v does not match both sentinels", err)
	}
}

// TestFramedFileReader proves the file framing's integrity check (the clean
// round trip is TestChunkFileReader): a flipped bit anywhere in a frame
// surfaces as ErrCorrupt with zero events delivered from the corrupt chunk,
// and a torn tail is corruption, not a clean end.
func TestFramedFileReader(t *testing.T) {
	file, _, second, _ := twoChunkFile()

	// Corrupt one payload byte of the second frame: the first chunk's
	// events replay, then the reader reports corruption.
	mutated := append([]byte(nil), file...)
	mutated[len(file)-len(second)] ^= 0x01
	r, err := NewReader(bytes.NewReader(mutated))
	if err != nil {
		t.Fatal(err)
	}
	var partial eventLog
	_, err = r.Replay(&partial)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt frame: err = %v, want ErrCorrupt", err)
	}
	if len(partial.branches()) != 2 {
		t.Fatalf("corrupt second chunk leaked events: got %d branches, want the first chunk's 2", len(partial.branches()))
	}

	// Torn tail: truncating the file mid-frame is corruption, not EOF.
	r, err = NewReader(bytes.NewReader(file[:len(file)-3]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Replay(Discard); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn file: err = %v, want ErrCorrupt", err)
	}
}
