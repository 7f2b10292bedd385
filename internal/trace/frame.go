package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Chunk framing (the trace format's version-3 container).
//
// A bare chunk carries no integrity metadata: a flipped bit in a spilled
// chunk either fails structurally (a truncated varint) or — far worse —
// decodes into a *different* branch stream and silently poisons every arm
// replaying it. Version 3 wraps each chunk in a self-describing frame:
//
//	uvarint len | crc32c (4 bytes, little-endian) | len payload bytes
//
// The payload is an unmodified chunk (chunk.go); the checksum is
// CRC32C (Castagnoli), hardware-accelerated on amd64/arm64 by hash/crc32,
// computed over the payload alone. The length prefix makes a frame
// skippable without decoding and turns a torn tail (a crash mid-append)
// into a detectable short frame instead of a misparse.
//
// CRC32C detects all single-bit and all burst errors up to 32 bits, which
// covers the realistic disk-corruption model (a flipped bit or a torn
// sector) rather than an adversarial one; untrusted trace ingestion should
// still sandbox what it decodes.

// frameCRCLen is the size of the encoded checksum field.
const frameCRCLen = 4

// maxFramePayload bounds a frame's declared payload length. Real chunks are
// ~64 KiB (the writer's seal threshold); the bound keeps a corrupt length
// prefix from turning into a multi-gigabyte allocation.
const maxFramePayload = 1 << 30

// castagnoli is the CRC32C table, built once.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32C (Castagnoli) checksum of data, the per-chunk
// integrity check of the version-3 framing.
func Checksum(data []byte) uint32 { return crc32.Checksum(data, castagnoli) }

// ErrCorrupt is returned when stored trace data fails its integrity check:
// a frame checksum mismatch, a torn (short) frame, or structurally invalid
// records. ErrMalformedChunk wraps it, so errors.Is(err, ErrCorrupt)
// matches every way a chunk can be bad.
var ErrCorrupt = errors.New("trace: corrupt data")

// AppendFrame appends one version-3 frame holding payload to dst and
// returns the extended slice.
func AppendFrame(dst, payload []byte) []byte {
	return append(AppendFrameHeader(dst, len(payload), Checksum(payload)), payload...)
}

// AppendFrameHeader appends the header of a version-3 frame — the length
// prefix and checksum — for a payload of n bytes whose CRC32C is crc. It
// lets writers that already hold the checksum (the replay engine computes
// it at capture) frame a chunk without re-hashing or copying the payload.
func AppendFrameHeader(dst []byte, n int, crc uint32) []byte {
	dst = binary.AppendUvarint(dst, uint64(n))
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// Verify checks payload against its stored CRC32C, returning an error
// wrapping ErrCorrupt on mismatch.
func Verify(payload []byte, crc uint32) error {
	if got := Checksum(payload); got != crc {
		return fmt.Errorf("%w: chunk checksum mismatch (stored %08x, computed %08x)", ErrCorrupt, crc, got)
	}
	return nil
}
