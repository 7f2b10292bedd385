package trace

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// decodeFramedChunk verifies one frame and replays its chunk payload into
// rec. Corruption — of the frame or of the records inside it — returns an
// error wrapping ErrCorrupt before rec sees a single event of the bad
// chunk; trailing bytes after the frame are rejected too, so a framed
// chunk either replays whole or not at all.
func decodeFramedChunk(data []byte, rec Recorder) error {
	payload, rest, err := DecodeFrame(data)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing bytes after frame", ErrCorrupt, len(rest))
	}
	return DecodeChunk(payload, rec)
}

// testChunk encodes a small branch stream and returns the raw chunk.
func testChunk(t *testing.T) []byte {
	t.Helper()
	var w ChunkWriter
	w.Branch(0x1_2000_0000, true)
	w.Ops(12)
	w.Branch(0x1_2000_0010, false)
	w.Branch(0x1_2000_0004, true)
	c := w.Cut()
	if c == nil {
		t.Fatal("empty chunk")
	}
	return c
}

func TestFrameRoundTrip(t *testing.T) {
	payload := testChunk(t)
	frame := AppendFrame(nil, payload)
	got, rest, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload = %x, want %x", got, payload)
	}
	if len(rest) != 0 {
		t.Fatalf("rest = %d bytes, want 0", len(rest))
	}
	// Two concatenated frames decode in sequence.
	two := AppendFrame(AppendFrame(nil, payload), payload)
	first, rest, err := DecodeFrame(two)
	if err != nil || !bytes.Equal(first, payload) {
		t.Fatalf("first frame: %v", err)
	}
	second, rest, err := DecodeFrame(rest)
	if err != nil || !bytes.Equal(second, payload) || len(rest) != 0 {
		t.Fatalf("second frame: %v (rest %d)", err, len(rest))
	}
}

func TestFrameDetectsEverySingleBitFlip(t *testing.T) {
	payload := testChunk(t)
	frame := AppendFrame(nil, payload)
	var rec Counts
	if err := decodeFramedChunk(frame, &rec); err != nil {
		t.Fatalf("pristine frame: %v", err)
	}
	for bit := 0; bit < len(frame)*8; bit++ {
		mutated := append([]byte(nil), frame...)
		mutated[bit/8] ^= 1 << (bit % 8)
		var rec Counts
		err := decodeFramedChunk(mutated, &rec)
		if err == nil {
			t.Fatalf("bit flip at %d went undetected", bit)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bit flip at %d: err = %v, want ErrCorrupt", bit, err)
		}
	}
}

func TestFrameTornTail(t *testing.T) {
	payload := testChunk(t)
	frame := AppendFrame(nil, payload)
	for cut := 1; cut < len(frame); cut++ {
		var rec Counts
		err := decodeFramedChunk(frame[:cut], &rec)
		if err == nil {
			t.Fatalf("torn frame of %d/%d bytes accepted", cut, len(frame))
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("torn frame of %d bytes: err = %v, want ErrCorrupt", cut, err)
		}
	}
}

func TestVerify(t *testing.T) {
	payload := testChunk(t)
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
	file, first, second, _ := twoChunkFile()

	// Corrupt one payload byte of the second frame: the first chunk's
	// events replay, then the reader reports corruption.
	headerLen := len(FramedFileHeader())
	firstFrame := AppendFrame(nil, first)
	mutated := append([]byte(nil), file...)
	mutated[headerLen+len(firstFrame)+FrameOverhead(len(second))] ^= 0x01
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
