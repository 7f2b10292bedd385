package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary trace file format (version 3, "BTRC3\n").
//
// The file starts with the 6-byte magic "BTRC3\n" followed by any
// concatenation of frames (frame.go), each holding one self-contained
// chunk of records (chunk.go). Every chunk opens with an absolute branch,
// so frames decode independently and PCs are lossless over the full 64-bit
// address space; the per-frame CRC32C turns disk corruption and torn tails
// into errors instead of replayed events. The replay engine's spilled and
// exported traces (Trace.WriteTo) and bptrace's recordings use it.

var traceMagic = []byte("BTRC3\n")

// FramedFileHeader returns the header bytes of a trace file: this header
// followed by any concatenation of AppendFrame frames is a trace file
// NewReader decodes and verifies.
func FramedFileHeader() []byte { return append([]byte(nil), traceMagic...) }

// ErrBadMagic is returned by NewReader when the input is not a trace file.
var ErrBadMagic = errors.New("trace: bad magic, not a branch trace file")

func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Reader decodes a trace file and replays it into a Recorder. Every
// frame's checksum is verified before any of its records are surfaced.
type Reader struct {
	r     *bufio.Reader
	frame []byte // the current frame's payload, reused across frames
}

// NewReader validates the header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head := make([]byte, len(traceMagic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(head) != string(traceMagic) {
		return nil, ErrBadMagic
	}
	return &Reader{r: br}, nil
}

// loadFrame reads the next frame's payload into r.frame and returns its
// stored checksum. A clean end of stream returns io.EOF; a frame torn by a
// crash mid-append returns an error wrapping ErrCorrupt.
func (r *Reader) loadFrame() (uint32, error) {
	n, err := binary.ReadUvarint(r.r)
	if err == io.EOF {
		return 0, io.EOF // clean end between frames
	}
	if err != nil {
		return 0, fmt.Errorf("%w: frame length: %v", ErrCorrupt, err)
	}
	if n > maxFramePayload {
		return 0, fmt.Errorf("%w: frame length %d exceeds limit", ErrCorrupt, n)
	}
	var crcBuf [frameCRCLen]byte
	if _, err := io.ReadFull(r.r, crcBuf[:]); err != nil {
		return 0, fmt.Errorf("%w: truncated frame checksum: %v", ErrCorrupt, err)
	}
	if cap(r.frame) < int(n) {
		r.frame = make([]byte, n)
	}
	r.frame = r.frame[:n]
	if _, err := io.ReadFull(r.r, r.frame); err != nil {
		return 0, fmt.Errorf("%w: truncated frame payload: %v", ErrCorrupt, err)
	}
	return binary.LittleEndian.Uint32(crcBuf[:]), nil
}

// Replay streams the whole remaining trace into rec, frame by frame, and
// returns the totals observed. A frame that fails its checksum or holds
// malformed records returns an error wrapping ErrCorrupt; rec has then
// seen every earlier frame and none of a frame whose checksum failed. A
// Stop panic raised by rec (cooperative cancellation, e.g. a sim.Runner
// built WithContext) is recovered and returned as its error.
func (r *Reader) Replay(rec Recorder) (c Counts, err error) {
	defer func() {
		if rv := recover(); rv != nil {
			if stopErr, ok := AsStop(rv); ok {
				err = stopErr
				return
			}
			panic(rv)
		}
	}()
	tee := Tee(&c, rec)
	for {
		crc, err := r.loadFrame()
		if err == io.EOF {
			return c, nil
		}
		if err != nil {
			return c, err
		}
		if err := Verify(r.frame, crc); err != nil {
			return c, err
		}
		if err := DecodeChunk(r.frame, tee); err != nil {
			return c, err
		}
	}
}
