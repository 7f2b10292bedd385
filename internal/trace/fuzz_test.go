package trace

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzReaderRobustness feeds arbitrary bytes to the trace reader: it must
// either reject them or replay to a clean end or an error, never panic or
// loop. Every error past the header wraps ErrCorrupt.
func FuzzReaderRobustness(f *testing.F) {
	valid := writeFile([]Event{{0x1200_0000, true}, {0x1200_0010, false}, {0x40, true}}, []uint64{12, 0, 3}, 2)
	f.Add(valid)
	f.Add(valid[:len(valid)-2]) // torn tail
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)-1] ^= 0x04 // fails its frame checksum
	f.Add(corrupt)
	f.Add(FramedFileHeader())
	f.Add(AppendFrame(FramedFileHeader(), []byte{chunkAbs, 0x10, 0x02})) // checksum passes, records do not
	f.Add([]byte("BTRC1\n\x00"))
	f.Add([]byte("BTRC2\n\x01"))
	f.Add([]byte("garbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		if _, err := r.Replay(Discard); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Replay error %v does not wrap ErrCorrupt", err)
		}
	})
}

// FuzzRoundTrip checks write→read identity over arbitrary event streams,
// across a frame boundary and over the full 64-bit address space.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint64(0x1200_0000), true, uint64(3))
	f.Add(uint64(0), false, uint64(0))
	f.Add(uint64(1)<<63|0x10, true, uint64(1)<<40)

	f.Fuzz(func(t *testing.T, pc uint64, taken bool, ops uint64) {
		file := writeFile([]Event{{pc, taken}, {pc + 4, !taken}, {pc, taken}}, []uint64{ops}, 2)
		r, err := NewReader(bytes.NewReader(file))
		if err != nil {
			t.Fatal(err)
		}
		var got Buffer
		counts, err := r.Replay(&got)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Events) != 3 || got.Events[0].PC != pc || got.Events[0].Taken != taken {
			t.Fatalf("event 0 = %+v, want pc %#x taken %v", got.Events, pc, taken)
		}
		if got.Events[1].PC != pc+4 || got.Events[1].Taken == taken || got.Events[2] != got.Events[0] {
			t.Fatalf("events 1-2 = %+v", got.Events[1:])
		}
		if counts.Instructions != 3+ops {
			t.Fatalf("instructions = %d, want %d", counts.Instructions, 3+ops)
		}
	})
}
