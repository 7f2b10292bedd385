package sim_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"branchsim/internal/core"
	"branchsim/internal/predictor"
	"branchsim/internal/predictor/reference"
	"branchsim/internal/profile"
	"branchsim/internal/sim"
	"branchsim/internal/trace"
)

// batchSpecs are the seven devirtualized table predictors plus one
// scalar-fallback scheme, so the differential also covers the Runner's
// generic block path.
var batchSpecs = []string{
	"bimodal:1KB", "ghist:1KB", "gshare:1KB", "agree:1KB",
	"bimode:1KB", "gskew:1KB", "2bcgskew:1KB", "tage:1KB",
}

// encodeStream builds one chunk from a deterministic pseudo-random event
// stream with a skewed PC distribution: a hot set, a warm tail, cold
// collision-prone strays, and interleaved straight-line runs.
func encodeStream(n int, seed uint64) []byte {
	var w trace.ChunkWriter
	s := seed
	pc := uint64(0x1_2000_0000)
	for i := 0; i < n; i++ {
		s = s*6364136223846793005 + 1442695040888963407
		switch s % 7 {
		case 0:
			w.Ops(s >> 32 % 500)
		case 1, 2, 3:
			w.Branch(0x1_2000_0000+(s>>16%8)*4, s>>60%4 != 0)
		case 4, 5:
			pc += (s >> 24 % 128) * 4
			w.Branch(pc, s>>61%2 == 0)
		default:
			w.Branch(0x2_0000_0000+(s>>8%50_000)*4, s>>62%2 == 0)
		}
	}
	return w.Cut()
}

// runScalar replays data through a per-event Runner (the scalar protocol);
// runBatch replays the same bytes through the block decoder into the
// Runner's devirtualized kernel path. Both return the final metrics and the
// decode error.
func runScalar(t *testing.T, spec string, data []byte, track bool, db *profile.DB) (sim.Metrics, error) {
	t.Helper()
	return runPath(mustNew(t, spec), data, track, db, 0, false)
}

func runBatch(t *testing.T, spec string, data []byte, track bool, db *profile.DB, blockMax int) (sim.Metrics, error) {
	t.Helper()
	return runPath(mustNew(t, spec), data, track, db, blockMax, true)
}

func mustNew(t *testing.T, spec string) predictor.Predictor {
	t.Helper()
	p, err := predictor.New(spec)
	if err != nil {
		t.Fatalf("predictor %q: %v", spec, err)
	}
	return p
}

// runPath replays data through a Runner around p: per event, or through the
// block decoder in blocks of up to blockMax events.
func runPath(p predictor.Predictor, data []byte, track bool, db *profile.DB, blockMax int, blocks bool) (sim.Metrics, error) {
	opts := []sim.Option{sim.WithLabels("fuzz", "fuzz")}
	if track {
		opts = append(opts, sim.WithCollisions())
	}
	if db != nil {
		opts = append(opts, sim.WithProfile(db))
	}
	r := sim.NewRunner(p, opts...)
	var err error
	if blocks {
		buf := trace.BlockBuf{Max: blockMax}
		err = trace.DecodeChunkBlocks(data, r, &buf)
	} else {
		err = trace.DecodeChunk(data, r)
	}
	return r.Metrics(), err
}

// events is the branch stream a chunk delivers (its valid prefix, when the
// chunk is malformed), as parallel arrays.
type events struct {
	pcs   []uint64
	taken []bool
}

func (e *events) Branch(pc uint64, taken bool) {
	e.pcs = append(e.pcs, pc)
	e.taken = append(e.taken, taken)
}

func (e *events) Ops(uint64) {}

func decodeEvents(data []byte) events {
	var e events
	_ = trace.DecodeChunk(data, &e)
	return e
}

// hintSet draws a hint set over the stream's branches from seed: seed%4
// picks the share hinted (none, about a quarter, about three quarters, all)
// and the seed's hash the branches and their directions, so fuzzing the
// seed fuzzes the static filter's input.
func hintSet(pcs []uint64, seed uint64) *core.HintDB {
	h := core.NewHintDB("fuzz", "fuzzhints", "fuzz")
	share := [4]uint64{0, 4, 12, 16}[seed%4]
	for _, pc := range pcs {
		x := (pc ^ seed) * 0x9e3779b97f4a7c15
		if x>>60 < share {
			h.Set(pc, x>>59&1 == 1)
		}
	}
	return h
}

// combinedRun is one replay of a stream through a Combined predictor: its
// metrics, its static/dynamic split and the per-branch profile.
type combinedRun struct {
	m     sim.Metrics
	stats core.CombinedStats
	db    *profile.DB
	err   error
}

// runCombined replays data through a Combined over dynSpec: per event when
// blockMax < 0, else through the block decoder. The profile is collected
// when prof is set.
func runCombined(t *testing.T, dynSpec string, hints *core.HintDB, shift core.ShiftPolicy, data []byte, prof bool, blockMax int) combinedRun {
	t.Helper()
	c := core.NewCombined(mustNew(t, dynSpec), hints, shift)
	var run combinedRun
	if prof {
		run.db = profile.NewDB("fuzz", "fuzz")
	}
	run.m, run.err = runPath(c, data, true, run.db, blockMax, blockMax >= 0)
	run.stats = c.Stats()
	return run
}

// sameCombined reports how two combined runs differ, "" when they agree on
// metrics, static/dynamic split and profile, down to its saved bytes.
func sameCombined(want, got combinedRun) string {
	if d := want.m.Diff(got.m); d != "" {
		return "metrics: " + d
	}
	if want.stats != got.stats {
		return "stats differ"
	}
	if !reflect.DeepEqual(want.db, got.db) {
		return "profiles differ"
	}
	if want.db != nil {
		var a, b bytes.Buffer
		if err := want.db.Save(&a); err != nil {
			return err.Error()
		}
		if err := got.db.Save(&b); err != nil {
			return err.Error()
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			return "saved profiles differ"
		}
	}
	return ""
}

// flagsMatch drives two Combined predictors over the stream, one through
// the scalar protocol and one through predictor.Batch in blocks of cut
// events, and reports the first event whose correct or collided flag
// differs, or whose static/dynamic split differs at the end (-1: none).
func flagsMatch(t *testing.T, dynSpec string, hints *core.HintDB, shift core.ShiftPolicy, ev events, cut int) int {
	t.Helper()
	scalar := core.NewCombined(mustNew(t, dynSpec), hints, shift)
	block := core.NewCombined(mustNew(t, dynSpec), hints, shift)
	scalar.EnableCollisionTracking()
	block.EnableCollisionTracking()
	k, _ := predictor.Batch(block)
	n := len(ev.pcs)
	var bm predictor.BlockMetrics
	bm.Correct, bm.Collided = make([]bool, n), make([]bool, n)
	for i := 0; i < n; i += cut {
		e := min(i+cut, n)
		part := bm
		part.Correct, part.Collided = bm.Correct[i:e], bm.Collided[i:e]
		k.RunBlock(ev.pcs[i:e], ev.taken[i:e], &part)
	}
	for i, pc := range ev.pcs {
		correct := scalar.Predict(pc) == ev.taken[i]
		collided := scalar.LastCollision()
		scalar.Update(pc, ev.taken[i])
		if correct != bm.Correct[i] || collided != bm.Collided[i] {
			return i
		}
	}
	if scalar.Stats() != block.Stats() {
		return n
	}
	return -1
}

// referenceFor builds the reference model of a Combined over dynSpec, or
// nil when the reference has no such predictor.
func referenceFor(dynSpec string, hints *core.HintDB, shift core.ShiftPolicy) *reference.Combined {
	var dyn reference.Predictor
	switch dynSpec {
	case "bimodal:1KB":
		dyn = reference.NewBimodal(1024)
	case "gshare:1KB":
		dyn = reference.NewGShare(1024)
	default:
		return nil
	}
	c := &reference.Combined{Dyn: dyn, Hints: map[uint64]bool{},
		ShiftOutcome: shift == core.ShiftOutcome, ShiftHint: shift == core.ShiftStatic}
	if hints != nil {
		for _, h := range hints.Hints() {
			c.Hints[h.PC] = h.Taken
		}
	}
	return c
}

// matchesReference reports how a production run differs from the
// reference's run over the same events, "" when it does not. stats is nil
// for a bare predictor, whose run has no static/dynamic split; db is nil
// when no profile was collected.
func matchesReference(m sim.Metrics, stats *core.CombinedStats, db *profile.DB, ref reference.Result) string {
	got := []uint64{m.Branches, m.TakenCount, m.Mispredicts, m.Collisions.Total, m.Collisions.Constructive, m.Collisions.Destructive}
	want := []uint64{ref.Branches, ref.Taken, ref.Mispredicts, ref.Collisions, ref.Constructive, ref.Destructive}
	if stats != nil {
		got = append(got, stats.StaticExecs, stats.StaticMispred, stats.DynamicExecs)
		want = append(want, ref.StaticExecs, ref.StaticMispred, ref.DynamicExecs)
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("branches, taken, mispredicts, collisions (all, constructive, destructive), static/dynamic split: got %v, want %v", got, want)
	}
	if db == nil {
		return ""
	}
	if db.Len() != len(ref.Sites) {
		return fmt.Sprintf("profile has %d branches, want %d", db.Len(), len(ref.Sites))
	}
	for pc, s := range ref.Sites {
		b := db.Get(pc)
		if b == nil || b.Exec != s.Exec || b.Taken != s.Taken || b.Correct != s.Correct || b.Dcol != s.Dcol {
			return fmt.Sprintf("profile of pc %#x: got %+v, want %+v", pc, b, *s)
		}
	}
	return ""
}

// combinedDyns are the dynamic components the Combined differentials wrap:
// bimodal (native kernel, no history, so every shift policy takes the
// block path), gshare (native kernel with history) and tage (the scalar
// fallback behind the Combined kernel).
var combinedDyns = []string{"bimodal:1KB", "gshare:1KB", "tage:1KB"}

var shiftPolicies = []core.ShiftPolicy{core.NoShift, core.ShiftOutcome, core.ShiftStatic}

// TestBatchVsScalarStreams is the deterministic core of the differential:
// for every predictor (the seven kernels plus a scalar-fallback scheme),
// with collision tracking on and off, and across block capacities that put
// boundaries at awkward offsets, the batched replay must produce
// bit-identical sim.Metrics — including the collision taxonomy — and a
// bit-identical per-branch profile.
func TestBatchVsScalarStreams(t *testing.T) {
	data := encodeStream(60_000, 31337)
	for _, spec := range batchSpecs {
		for _, track := range []bool{true, false} {
			dbWant := profile.NewDB("fuzz", "fuzz")
			want, errWant := runScalar(t, spec, data, track, dbWant)
			if errWant != nil {
				t.Fatalf("%s: scalar decode: %v", spec, errWant)
			}
			for _, blockMax := range []int{1, 5, 1000, 0} {
				dbGot := profile.NewDB("fuzz", "fuzz")
				got, err := runBatch(t, spec, data, track, dbGot, blockMax)
				if err != nil {
					t.Fatalf("%s: batch decode: %v", spec, err)
				}
				if d := want.Diff(got); d != "" {
					t.Errorf("%s track=%v blockMax=%d: metrics diverge: %s", spec, track, blockMax, d)
				}
				if !reflect.DeepEqual(dbWant, dbGot) {
					t.Errorf("%s track=%v blockMax=%d: per-branch profiles diverge", spec, track, blockMax)
				}
			}
			if ref := referenceFor(spec, nil, core.NoShift); ref != nil && track {
				ev := decodeEvents(data)
				if d := matchesReference(want, nil, dbWant, reference.Run(ref, ev.pcs, ev.taken)); d != "" {
					t.Errorf("%s: scalar path differs from the reference: %s", spec, d)
				}
			}
		}
	}

	// The static filter: Combined over a native and a fallback dynamic
	// component, hint sets from none to all branches, every shift policy,
	// per event and at awkward block cuts. Every path must agree on the
	// metrics, the static/dynamic split, the profile and the per-event
	// flags, and — where the reference models the predictor — with the
	// reference.
	data = encodeStream(12_000, 4242)
	ev := decodeEvents(data)
	for _, dyn := range combinedDyns {
		for seed := uint64(0x5eed0); seed < 0x5eed4; seed++ {
			hints := hintSet(ev.pcs, seed)
			for _, shift := range shiftPolicies {
				name := fmt.Sprintf("%s hints=%d %s", dyn, hints.Len(), shift)
				// A profiling runner over tage stays per event (it reads
				// tage's confidence), so tage runs unprofiled to keep the
				// block path under test.
				prof := dyn != "tage:1KB"
				want := runCombined(t, dyn, hints, shift, data, prof, -1)
				if want.err != nil {
					t.Fatalf("%s: scalar decode: %v", name, want.err)
				}
				for _, blockMax := range []int{1, 5, 1000, 0} {
					got := runCombined(t, dyn, hints, shift, data, prof, blockMax)
					if got.err != nil {
						t.Fatalf("%s: batch decode: %v", name, got.err)
					}
					if d := sameCombined(want, got); d != "" {
						t.Errorf("%s blockMax=%d: %s", name, blockMax, d)
					}
				}
				for _, cut := range []int{1, 7, 1000, 2500} {
					if i := flagsMatch(t, dyn, hints, shift, ev, cut); i >= 0 {
						t.Errorf("%s cut=%d: per-event flags or split differ at event %d", name, cut, i)
					}
				}
				if ref := referenceFor(dyn, hints, shift); ref != nil {
					if d := matchesReference(want.m, &want.stats, want.db, reference.Run(ref, ev.pcs, ev.taken)); d != "" {
						t.Errorf("%s: differs from the reference: %s", name, d)
					}
				}
			}
		}
	}
}

// FuzzBatchVsScalar feeds arbitrary chunk bytes — valid encodings, corrupt
// mutants, garbage — through both replay paths of a fuzz-chosen predictor
// and demands identical outcomes: the same decode error (or none) and
// bit-identical metrics for whatever prefix was delivered. blockMax fuzzes
// the block capacity so boundaries land at arbitrary offsets. A non-zero
// hintSeed wraps the predictor in the static filter instead, with a hint
// set drawn from the seed and a fuzz-chosen shift policy, and compares the
// static/dynamic split, the profile and, for the predictors the reference
// models, the reference's results too.
func FuzzBatchVsScalar(f *testing.F) {
	valid := encodeStream(2_000, 7)
	f.Add(valid, uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(valid, uint8(1), uint8(3), uint8(0), uint8(0))
	f.Add(valid, uint8(7), uint8(6), uint8(0), uint8(0))
	f.Add(valid, uint8(0), uint8(0), uint8(1), uint8(0))
	f.Add(valid, uint8(3), uint8(2), uint8(2), uint8(1))
	f.Add(valid, uint8(9), uint8(7), uint8(3), uint8(2))
	f.Add(valid, uint8(1), uint8(0), uint8(6), uint8(1))
	f.Add(valid, uint8(5), uint8(2), uint8(5), uint8(2)) // gshare, ShiftStatic: against the reference
	f.Add([]byte{}, uint8(1), uint8(1), uint8(0), uint8(0))
	f.Add([]byte{0: 0}, uint8(3), uint8(2), uint8(0), uint8(0))                   // ops record missing count
	f.Add(bytes.Repeat([]byte{0x80}, 12), uint8(2), uint8(4), uint8(0), uint8(0)) // unterminated varint
	f.Add([]byte{1, 0x10, 0x02}, uint8(5), uint8(5), uint8(0), uint8(0))          // impossible outcome
	// Single-byte-corruption corpus over a small valid chunk, mirroring the
	// trace package's chunk fuzz seeds: every mutant once bare and once
	// through the filter.
	small := encodeStream(40, 11)
	for i := 0; i < len(small); i++ {
		mutant := append([]byte(nil), small...)
		mutant[i] ^= 0x41
		f.Add(mutant, uint8(i), uint8(i), uint8(0), uint8(0))
		f.Add(mutant, uint8(i), uint8(i), uint8(i+1), uint8(i))
	}

	f.Fuzz(func(t *testing.T, data []byte, blockMax, sel, hintSeed, shiftSel uint8) {
		if len(data) > 1<<16 {
			data = data[:1<<16]
		}
		spec := batchSpecs[int(sel)%len(batchSpecs)]
		if hintSeed != 0 {
			fuzzCombined(t, spec, data, int(blockMax), uint64(hintSeed), shiftPolicies[int(shiftSel)%len(shiftPolicies)])
			return
		}
		want, errWant := runScalar(t, spec, data, true, nil)
		got, errGot := runBatch(t, spec, data, true, nil, int(blockMax))
		if (errGot == nil) != (errWant == nil) ||
			(errGot != nil && errGot.Error() != errWant.Error()) {
			t.Fatalf("%s: batch error %v, scalar error %v", spec, errGot, errWant)
		}
		if d := want.Diff(got); d != "" {
			t.Fatalf("%s blockMax=%d: metrics diverge: %s", spec, blockMax, d)
		}
	})
}

// fuzzCombined is FuzzBatchVsScalar's static-filter case.
func fuzzCombined(t *testing.T, dyn string, data []byte, blockMax int, seed uint64, shift core.ShiftPolicy) {
	ev := decodeEvents(data)
	hints := hintSet(ev.pcs, seed)
	prof := dyn != "tage:1KB"
	want := runCombined(t, dyn, hints, shift, data, prof, -1)
	got := runCombined(t, dyn, hints, shift, data, prof, blockMax)
	if (got.err == nil) != (want.err == nil) ||
		(got.err != nil && got.err.Error() != want.err.Error()) {
		t.Fatalf("%s: batch error %v, scalar error %v", dyn, got.err, want.err)
	}
	name := fmt.Sprintf("%s hints=%d %s blockMax=%d", dyn, hints.Len(), shift, blockMax)
	if d := sameCombined(want, got); d != "" {
		t.Fatalf("%s: %s", name, d)
	}
	if i := flagsMatch(t, dyn, hints, shift, ev, max(blockMax, 1)); i >= 0 {
		t.Fatalf("%s: per-event flags or split differ at event %d", name, i)
	}
	if ref := referenceFor(dyn, hints, shift); ref != nil {
		if d := matchesReference(got.m, &got.stats, got.db, reference.Run(ref, ev.pcs, ev.taken)); d != "" {
			t.Fatalf("%s: differs from the reference: %s", name, d)
		}
	}
}
