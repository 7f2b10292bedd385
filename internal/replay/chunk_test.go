package replay

import (
	"bytes"
	"context"
	"encoding/binary"
	"slices"
	"testing"

	"branchsim/internal/predictor"
	"branchsim/internal/sim"
	"branchsim/internal/trace"
	"branchsim/internal/workload"
)

// fuzzDecoded builds a decoded chunk from fuzz bytes. Each event takes a
// kind byte (bit 0: taken; bit 1: an absolute 8-byte PC follows instead of
// a one-byte signed step; bit 2: scale the ops count into a multi-byte
// varint) and an ops byte.
func fuzzDecoded(data []byte, tail uint64) *decoded {
	d := &decoded{tail: tail}
	var pc uint64
	for len(data) >= 3 {
		kind, ops := data[0], uint64(data[1])
		if kind&2 != 0 && len(data) >= 10 {
			pc = binary.LittleEndian.Uint64(data[2:10])
			data = data[10:]
		} else {
			pc += uint64(int64(int8(data[2])) * 4)
			data = data[3:]
		}
		if kind&4 != 0 {
			ops <<= 20
		}
		d.pcs = append(d.pcs, pc)
		d.taken = append(d.taken, kind&1 != 0)
		d.ops = append(d.ops, ops)
		d.opsSum += ops
	}
	return d
}

// collectSink gathers what DecodeChunkBlocks delivers back into arrays.
type collectSink struct{ d decoded }

func (s *collectSink) RunBlock(pcs []uint64, taken []bool, ops []uint64) {
	s.d.pcs = append(s.d.pcs, pcs...)
	s.d.taken = append(s.d.taken, taken...)
	s.d.ops = append(s.d.ops, ops...)
}

func (s *collectSink) Ops(n uint64) { s.d.tail += n }

// FuzzEncodeDecoded checks the encoder of decoded chunks, the only way a
// chunk's bytes are made. Encoding a chunk's arrays must give the bytes a
// ChunkWriter writes when the same events are recorded into it one call at
// a time (each straight-line run split over two Ops calls), also when the
// writer already encoded an earlier chunk; and DecodeChunkBlocks must give
// the arrays back, at any block size.
func FuzzEncodeDecoded(f *testing.F) {
	abs := func(kind byte, ops byte, pc uint64) []byte {
		return binary.LittleEndian.AppendUint64([]byte{kind | 2, ops}, pc)
	}
	// ops runs before branches and a trailing tail
	f.Add(append(abs(1, 3, 0x1_2000_0000), 0, 0, 2, 5, 7, 0xfe, 4, 1, 1), uint64(9), uint8(0))
	// a tail-only chunk, and an empty one
	f.Add([]byte{}, uint64(5), uint8(0))
	f.Add([]byte{}, uint64(0), uint8(1))
	// PC steps past the delta range, taken and not, at block size 1
	f.Add(append(abs(0, 0, 1<<63), abs(1, 0, 0)...), uint64(1)<<40, uint8(1))

	f.Fuzz(func(t *testing.T, data []byte, tail uint64, blockEvents uint8) {
		d := fuzzDecoded(data, tail)
		var ref trace.ChunkWriter
		for i, pc := range d.pcs {
			ref.Ops(d.ops[i] / 2)
			ref.Ops(d.ops[i] - d.ops[i]/2)
			ref.Branch(pc, d.taken[i])
		}
		ref.Ops(d.tail)
		want := ref.Cut()

		var w trace.ChunkWriter
		for pass := range 2 {
			if got := d.encode(&w); !bytes.Equal(got, want) {
				t.Fatalf("pass %d: encoded %x, ChunkWriter wrote %x", pass, got, want)
			}
		}

		var s collectSink
		if err := trace.DecodeChunkBlocks(want, &s, &trace.BlockBuf{Max: int(blockEvents)}); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !slices.Equal(s.d.pcs, d.pcs) || !slices.Equal(s.d.taken, d.taken) || !slices.Equal(s.d.ops, d.ops) || s.d.tail != d.tail {
			t.Fatalf("decoded %+v, want %+v", s.d, *d)
		}
	})
}

// TestBatchCaptureBudget checks where a batch capture keeps its chunks.
// Within the engine's budget every chunk stays decoded: no encoded bytes
// are held, and the engine counts the decoded arrays. Forced past the
// budget, the chunks that do not fit decoded are held as checksummed BTRC3
// records, in memory or spilled, memory stays within the budget, and arms
// replaying them, block-wise or per event, match a direct run.
func TestBatchCaptureBudget(t *testing.T) {
	ctx := context.Background()
	const wl, input = "compress", workload.InputTest
	newRunner := func() (trace.Recorder, error) {
		p, err := predictor.New("gshare:8KB")
		if err != nil {
			return nil, err
		}
		return sim.NewRunner(p, sim.WithCollisions()), nil
	}
	direct, _ := newRunner()
	if err := workload.Run(ctx, wl, input, direct); err != nil {
		t.Fatal(err)
	}
	want := direct.(*sim.Runner).Metrics()
	produce := func(r trace.Recorder) error { return workload.Run(ctx, wl, input, r) }

	for _, budget := range []int64{0, 1 << 20} {
		e := New(2, budget, t.TempDir())
		defer e.Close()
		check := func(label string, perEvent bool, src Source) {
			t.Helper()
			var rec trace.Recorder
			_, got, err := e.RunSourced(ctx, "k", produce, func() (trace.Recorder, error) {
				var err error
				if rec, err = newRunner(); perEvent {
					return struct{ trace.Recorder }{rec}, err // hides RunBlock
				}
				return rec, err
			})
			if err != nil || got != src {
				t.Fatalf("budget %d, %s: source %v, error %v; want %v", budget, label, got, err, src)
			}
			if d := want.Diff(rec.(*sim.Runner).Metrics()); d != "" {
				t.Errorf("budget %d, %s: metrics diverge from the direct run: %s", budget, label, d)
			}
		}
		check("capturing arm", false, SourceCapture)
		check("block replay", false, SourceReplay)
		check("per-event replay", true, SourceReplay)

		tr, _ := e.Trace("k")
		var decBytes, encoded int64
		for i := range tr.chunks {
			data, crc, dec, _, err := tr.chunkAt(nil, i, new([]byte))
			if err != nil {
				t.Fatal(err)
			}
			if dec != nil {
				decBytes += dec.bytes()
				continue
			}
			encoded++
			if err := trace.Verify(data, crc); err != nil {
				t.Errorf("budget %d: chunk %d: %v", budget, i, err)
			}
			if err := trace.DecodeChunk(data, trace.Discard); err != nil {
				t.Errorf("budget %d: chunk %d: %v", budget, i, err)
			}
		}
		switch {
		case budget == 0 && (encoded != 0 || tr.spill != nil):
			t.Errorf("budget %d: %d chunks encoded, spill file %v; want every chunk decoded", budget, encoded, tr.spill != nil)
		case budget == 0 && e.MemBytes() != decBytes:
			t.Errorf("budget %d: engine counts %d bytes, want the %d decoded bytes", budget, e.MemBytes(), decBytes)
		case budget > 0 && (encoded == 0 || tr.spill == nil):
			t.Errorf("budget %d: %d chunks encoded, spill file %v; want chunks encoded and spilled", budget, encoded, tr.spill != nil)
		case budget > 0 && e.MemBytes() > budget:
			t.Errorf("budget %d: %d bytes held in memory", budget, e.MemBytes())
		}
	}
}
