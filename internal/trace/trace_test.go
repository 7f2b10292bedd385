package trace

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"branchsim/internal/xrand"
)

func TestCountsAccumulate(t *testing.T) {
	var c Counts
	c.Branch(0x10, true)
	c.Branch(0x14, false)
	c.Branch(0x10, true)
	c.Ops(7)
	if c.Branches != 3 || c.TakenCount != 2 || c.Instructions != 10 {
		t.Fatalf("counts = %+v", c)
	}
	// 3 branches / 10 instructions = 300 CBRs/KI
	if got := c.CBRsPerKI(); math.Abs(got-300) > 1e-9 {
		t.Fatalf("CBRsPerKI = %v, want 300", got)
	}
}

func TestCountsEmpty(t *testing.T) {
	var c Counts
	if c.CBRsPerKI() != 0 {
		t.Fatalf("empty counts should report 0 CBRs/KI")
	}
}

func TestBufferStoresEvents(t *testing.T) {
	var b Buffer
	b.Branch(0x40, true)
	b.Ops(3)
	b.Branch(0x44, false)
	want := []Event{{PC: 0x40, Taken: true}, {PC: 0x44, Taken: false}}
	if len(b.Events) != 2 || b.Events[0] != want[0] || b.Events[1] != want[1] {
		t.Fatalf("events = %v", b.Events)
	}
	if b.Instructions != 5 {
		t.Fatalf("instructions = %d, want 5", b.Instructions)
	}
}

func TestTeeDuplicates(t *testing.T) {
	var a, b Buffer
	tee := Tee(&a, &b)
	tee.Branch(0x10, true)
	tee.Ops(4)
	if a.Branches != 1 || b.Branches != 1 || a.Instructions != 5 || b.Instructions != 5 {
		t.Fatalf("tee did not duplicate: a=%+v b=%+v", a.Counts, b.Counts)
	}
}

func TestDiscardAcceptsEverything(t *testing.T) {
	Discard.Branch(1, true)
	Discard.Ops(10)
}

func TestZigzag(t *testing.T) {
	for _, d := range []int64{0, 1, -1, 2, -2, 1 << 40, -(1 << 40), math.MaxInt64, math.MinInt64} {
		if got := unzigzag(zigzag(d)); got != d {
			t.Fatalf("unzigzag(zigzag(%d)) = %d", d, got)
		}
	}
}

func TestZigzagProperty(t *testing.T) {
	f := func(d int64) bool { return unzigzag(zigzag(d)) == d }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// writeFile encodes events as a trace file the way the replay engine
// exports one: ChunkWriter chunks, each in a frame behind FramedFileHeader.
// ops[i] instructions follow event i, and a new frame starts every cut
// branches (0 puts the whole stream in one frame).
func writeFile(events []Event, ops []uint64, cut int) []byte {
	var w ChunkWriter
	file := FramedFileHeader()
	for i, e := range events {
		w.Branch(e.PC, e.Taken)
		if i < len(ops) {
			w.Ops(ops[i])
		}
		if cut > 0 && (i+1)%cut == 0 {
			file = AppendFrame(file, w.Cut())
		}
	}
	if c := w.Cut(); c != nil {
		file = AppendFrame(file, c)
	}
	return file
}

func roundTrip(t *testing.T, events []Event, ops []uint64, cut int) (Counts, *Buffer) {
	t.Helper()
	r, err := NewReader(bytes.NewReader(writeFile(events, ops, cut)))
	if err != nil {
		t.Fatal(err)
	}
	var got Buffer
	counts, err := r.Replay(&got)
	if err != nil {
		t.Fatal(err)
	}
	return counts, &got
}

func TestFileRoundTrip(t *testing.T) {
	events := []Event{
		{0x1200_0000, true},
		{0x1200_0004, false},
		{0x1200_0004, true},
		{0xffff_ffff_fffc, true},     // big jump
		{0x10, false},                // big jump back
		{math.MaxUint64 &^ 3, false}, // full 64-bit address
	}
	for _, cut := range []int{0, 1, 2} {
		counts, got := roundTrip(t, events, []uint64{3, 0, 1 << 33}, cut)
		if len(got.Events) != len(events) {
			t.Fatalf("cut %d: replayed %d events, want %d", cut, len(got.Events), len(events))
		}
		for i := range events {
			if got.Events[i] != events[i] {
				t.Fatalf("cut %d: event %d = %+v, want %+v", cut, i, got.Events[i], events[i])
			}
		}
		if got.Instructions != uint64(len(events))+3+(1<<33) || counts != got.Counts {
			t.Fatalf("cut %d: instructions = %d, counts = %+v", cut, got.Instructions, counts)
		}
	}
}

func TestFileRoundTripProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		rng := xrand.New(seed)
		events := make([]Event, int(n))
		var ops []uint64
		for i := range events {
			events[i] = Event{PC: rng.Uint64(), Taken: rng.Bool(0.5)}
			ops = append(ops, uint64(rng.Intn(100)))
		}
		_, got := roundTrip(t, events, ops, 1+int(seed%64))
		if len(got.Events) != len(events) {
			return false
		}
		for i := range events {
			if got.Events[i] != events[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestReaderRejectsBadMagic covers foreign input and the retired
// version-1 and version-2 headers: only BTRC3 files are read.
func TestReaderRejectsBadMagic(t *testing.T) {
	for _, head := range []string{"NOTATRACEFILE", "BTRC1\n", "BTRC2\n\x01\x10\x01"} {
		if _, err := NewReader(strings.NewReader(head)); err != ErrBadMagic {
			t.Errorf("NewReader(%q) err = %v, want ErrBadMagic", head, err)
		}
	}
}

func TestReaderShortHeader(t *testing.T) {
	_, err := NewReader(strings.NewReader("BT"))
	if err == nil {
		t.Fatalf("short header accepted")
	}
}

// TestReaderTruncatedOpsRecord frames a chunk whose last record is an ops
// marker with no count. The frame passes its checksum, so only the record
// decoder can catch it, and it must report corruption.
func TestReaderTruncatedOpsRecord(t *testing.T) {
	var w ChunkWriter
	w.Branch(0x10, true)
	payload := append(w.Cut(), chunkOps)
	r, err := NewReader(bytes.NewReader(AppendFrame(FramedFileHeader(), payload)))
	if err != nil {
		t.Fatal(err)
	}
	c, err := r.Replay(Discard)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated ops record: err = %v, want ErrCorrupt", err)
	}
	if c.Branches != 1 {
		t.Fatalf("replayed %d branches before the bad record, want 1", c.Branches)
	}
}

func TestReaderCleanEOF(t *testing.T) {
	for name, file := range map[string][]byte{
		"header only": FramedFileHeader(),
		"empty frame": AppendFrame(FramedFileHeader(), nil),
	} {
		r, err := NewReader(bytes.NewReader(file))
		if err != nil {
			t.Fatal(err)
		}
		if c, err := r.Replay(Discard); err != nil || c != (Counts{}) {
			t.Fatalf("%s: Replay = %+v, %v; want empty counts and no error", name, c, err)
		}
	}
}

func TestWriterSkipsZeroOps(t *testing.T) {
	var w ChunkWriter
	w.Ops(0)
	if c := w.Cut(); c != nil {
		t.Fatalf("zero-ops record was written (%d bytes)", len(c))
	}
}

// Delta encoding should keep clustered streams compact: consecutive nearby
// PCs must average only a couple of bytes per branch.
func TestFileCompactness(t *testing.T) {
	events := make([]Event, 10000)
	for i := range events {
		events[i] = Event{PC: 0x1200_0000 + uint64(i%32)*4, Taken: i%3 == 0}
	}
	file := writeFile(events, nil, DefaultBlockEvents)
	if perBranch := float64(len(file)) / 10000; perBranch > 2.0 {
		t.Fatalf("%.2f bytes/branch for a clustered stream", perBranch)
	}
}
