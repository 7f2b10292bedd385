package core

import (
	"reflect"
	"testing"

	"branchsim/internal/predictor"
)

// spyPredictor records every call so tests can verify what the Combined
// wrapper forwards.
type spyPredictor struct {
	predicts, updates, shifts, resets int
	lastShift                         bool
	ret                               bool
}

func (s *spyPredictor) Name() string  { return "spy" }
func (s *spyPredictor) SizeBits() int { return 42 }
func (s *spyPredictor) Predict(uint64) bool {
	s.predicts++
	return s.ret
}
func (s *spyPredictor) Update(uint64, bool) { s.updates++ }
func (s *spyPredictor) Reset()              { s.resets++ }
func (s *spyPredictor) ShiftHistory(taken bool) {
	s.shifts++
	s.lastShift = taken
}

func hintsWith(pc uint64, taken bool) *HintDB {
	h := NewHintDB("w", "static95", "t")
	h.Set(pc, taken)
	return h
}

func TestCombinedStaticBranchBypassesDynamic(t *testing.T) {
	spy := &spyPredictor{}
	c := NewCombined(spy, hintsWith(0x100, true), NoShift)

	if !c.Predict(0x100) {
		t.Fatalf("static prediction not used")
	}
	c.Update(0x100, false) // mispredicted statically
	if spy.predicts != 0 || spy.updates != 0 || spy.shifts != 0 {
		t.Fatalf("dynamic predictor touched for a hinted branch: %+v", spy)
	}
	st := c.Stats()
	if st.StaticExecs != 1 || st.StaticMispred != 1 || st.DynamicExecs != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCombinedDynamicBranchFlowsThrough(t *testing.T) {
	spy := &spyPredictor{ret: true}
	c := NewCombined(spy, hintsWith(0x100, true), NoShift)

	if !c.Predict(0x200) {
		t.Fatalf("dynamic prediction not forwarded")
	}
	c.Update(0x200, true)
	if spy.predicts != 1 || spy.updates != 1 {
		t.Fatalf("dynamic path not exercised: %+v", spy)
	}
	if st := c.Stats(); st.DynamicExecs != 1 || st.StaticExecs != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCombinedShiftOutcome(t *testing.T) {
	spy := &spyPredictor{}
	c := NewCombined(spy, hintsWith(0x100, true), ShiftOutcome)
	c.Predict(0x100)
	c.Update(0x100, false)
	if spy.shifts != 1 || spy.lastShift != false {
		t.Fatalf("outcome not shifted: %+v", spy)
	}
	if spy.updates != 0 {
		t.Fatalf("tables trained for a static branch")
	}
}

func TestCombinedShiftStatic(t *testing.T) {
	spy := &spyPredictor{}
	c := NewCombined(spy, hintsWith(0x100, true), ShiftStatic)
	c.Predict(0x100)
	c.Update(0x100, false) // outcome false, static prediction true
	if spy.shifts != 1 || spy.lastShift != true {
		t.Fatalf("static direction not shifted: %+v", spy)
	}
}

func TestCombinedNoShiftOnDynamicBranches(t *testing.T) {
	// dynamic branches shift via their own Update; Combined must not
	// double-shift
	spy := &spyPredictor{}
	c := NewCombined(spy, hintsWith(0x100, true), ShiftOutcome)
	c.Predict(0x200)
	c.Update(0x200, true)
	if spy.shifts != 0 {
		t.Fatalf("combined double-shifted a dynamic branch")
	}
}

func TestCombinedWithoutShifterIsSafe(t *testing.T) {
	// bimodal has no history register; ShiftOutcome must be a no-op
	bim := predictor.NewBimodal(64)
	c := NewCombined(bim, hintsWith(0x100, true), ShiftOutcome)
	c.Predict(0x100)
	c.Update(0x100, true) // must not panic
}

func TestCombinedNilHintsTransparent(t *testing.T) {
	spy := &spyPredictor{ret: true}
	c := NewCombined(spy, nil, NoShift)
	for pc := uint64(0); pc < 100; pc += 4 {
		c.Predict(pc)
		c.Update(pc, true)
	}
	if spy.predicts != 25 || spy.updates != 25 {
		t.Fatalf("nil-hints wrapper not transparent: %+v", spy)
	}
}

func TestCombinedReset(t *testing.T) {
	spy := &spyPredictor{}
	c := NewCombined(spy, hintsWith(0x100, true), NoShift)
	c.Predict(0x100)
	c.Update(0x100, true)
	c.Reset()
	if spy.resets != 1 {
		t.Fatalf("dynamic reset not forwarded")
	}
	if st := c.Stats(); st.StaticExecs != 0 {
		t.Fatalf("stats survived reset: %+v", st)
	}
	// hints must survive reset (they live in the binary)
	if !c.Predict(0x100) {
		t.Fatalf("hints lost on reset")
	}
	c.Update(0x100, true)
}

func TestCombinedName(t *testing.T) {
	spy := &spyPredictor{}
	if got := NewCombined(spy, nil, NoShift).Name(); got != "spy+none" {
		t.Fatalf("name = %q", got)
	}
	if got := NewCombined(spy, hintsWith(1, true), NoShift).Name(); got != "spy+static95" {
		t.Fatalf("name = %q", got)
	}
	if got := NewCombined(spy, hintsWith(1, true), ShiftOutcome).Name(); got != "spy+static95(shift)" {
		t.Fatalf("name = %q", got)
	}
}

func TestCombinedSizeExcludesHints(t *testing.T) {
	spy := &spyPredictor{}
	big := NewHintDB("w", "s", "t")
	for i := uint64(0); i < 1000; i++ {
		big.Set(i*4, true)
	}
	if NewCombined(spy, big, NoShift).SizeBits() != 42 {
		t.Fatalf("hint bits charged to predictor storage")
	}
}

func TestCombinedCollisionNeverStatic(t *testing.T) {
	// drive two aliasing branches; the hinted one must never report a
	// collision even when the dynamic one does
	bim := predictor.NewBimodal(16) // 64 entries
	c := NewCombined(bim, hintsWith(0x1000, true), NoShift)
	c.EnableCollisionTracking()

	c.Predict(0x1000 + 64*4) // dynamic, installs tag
	c.Update(0x1000+64*4, true)
	c.Predict(0x1000) // static: must not collide, must not touch tags
	if c.LastCollision() {
		t.Fatalf("static branch reported a collision")
	}
	c.Update(0x1000, true)
	c.Predict(0x1000 + 128*4) // dynamic alias of the first
	if !c.LastCollision() {
		t.Fatalf("collision hidden by the wrapper")
	}
	c.Update(0x1000+128*4, true)
}

func TestCombinedIsPredictor(t *testing.T) {
	var _ predictor.Predictor = (*Combined)(nil)
	var _ predictor.Collider = (*Combined)(nil)
	var _ predictor.HistoryShifter = (*Combined)(nil)
}

func TestShiftPolicyString(t *testing.T) {
	cases := map[ShiftPolicy]string{
		NoShift:         "noshift",
		ShiftOutcome:    "shift",
		ShiftStatic:     "shiftstatic",
		ShiftPolicy(42): "ShiftPolicy(42)",
	}
	for p, want := range cases {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), want)
		}
	}
}

// TestCombinedBatchedPolicy pins when the wrapper has a block kernel:
// whenever a hinted branch leaves the dynamic predictor untouched — no
// hints, NoShift, or a dynamic predictor with no history to shift — with
// or without a native kernel behind it.
func TestCombinedBatchedPolicy(t *testing.T) {
	hints := hintsWith(0x100, true)
	for _, c := range []struct {
		dyn   string
		hints *HintDB
		shift ShiftPolicy
		want  bool
	}{
		{"gshare:1KB", nil, ShiftOutcome, true},
		{"gshare:1KB", hints, NoShift, true},
		{"gshare:1KB", hints, ShiftOutcome, false},
		{"gshare:1KB", hints, ShiftStatic, false},
		{"bimodal:1KB", hints, ShiftOutcome, true},
		{"tage:1KB", hints, NoShift, true},
		{"tage:1KB", hints, ShiftStatic, false},
	} {
		_, got := NewCombined(predictor.MustNew(c.dyn), c.hints, c.shift).Batched()
		if got != c.want {
			t.Errorf("%s hints=%d %s: Batched ok = %v, want %v", c.dyn, c.hints.Len(), c.shift, got, c.want)
		}
	}
}

// TestCombinedBlockKernel drives the filter's block kernel over a spy:
// hinted branches are scored in place, only the others reach the dynamic
// component, and every per-event flag lands at its own position.
func TestCombinedBlockKernel(t *testing.T) {
	spy := &spyPredictor{ret: true}
	h := NewHintDB("w", "static95", "t")
	h.Set(0x100, true)
	h.Set(0x104, false)
	c := NewCombined(spy, h, NoShift)
	k, native := predictor.Batch(c)
	if !native {
		t.Fatal("hinted NoShift wrapper has no block kernel")
	}
	pcs := []uint64{0x100, 0x200, 0x104, 0x100, 0x204, 0x104}
	taken := []bool{true, false, true, false, true, false}
	// static: right, wrong, wrong, right; dynamic (spy says taken): wrong, right
	var bm predictor.BlockMetrics
	bm.Correct, bm.Collided = make([]bool, len(pcs)), make([]bool, len(pcs))
	for i := range bm.Collided {
		bm.Collided[i] = true // stale values must be overwritten
	}
	k.RunBlock(pcs, taken, &bm)
	if want := []bool{true, false, false, false, true, true}; !reflect.DeepEqual(bm.Correct, want) {
		t.Errorf("Correct = %v, want %v", bm.Correct, want)
	}
	if want := make([]bool, len(pcs)); !reflect.DeepEqual(bm.Collided, want) {
		t.Errorf("Collided = %v, want all false", bm.Collided)
	}
	if bm.Mispredicts != 3 || bm.TakenCount != 3 || bm.Collisions != 0 {
		t.Errorf("block metrics %+v", bm)
	}
	if spy.predicts != 2 || spy.updates != 2 {
		t.Errorf("dynamic component saw %d predicts, %d updates; want 2, 2", spy.predicts, spy.updates)
	}
	if st := c.Stats(); st != (CombinedStats{StaticExecs: 4, StaticMispred: 2, DynamicExecs: 2}) {
		t.Errorf("stats = %+v", st)
	}
	if !c.lastStatic || c.lastTaken {
		t.Errorf("wrapper left as if its last branch were not the static not-taken 0x104")
	}
}

// TestCombinedCompilesHintsOnce: the wrapper reads the hint database once,
// when built, never writes it, and is named for the hints it read.
func TestCombinedCompilesHintsOnce(t *testing.T) {
	h := hintsWith(0x100, true)
	before := h.Hints()
	c := NewCombined(&spyPredictor{}, h, NoShift)
	h.Set(0x200, true)
	empty := NewHintDB("w", "static95", "train")
	bare := NewCombined(&spyPredictor{}, empty, NoShift)
	empty.Set(0x100, true)
	if got, want := bare.Name(), (&spyPredictor{}).Name()+"+none"; got != want {
		t.Errorf("a wrapper built without hints is named %q, want %q", got, want)
	}
	c.Predict(0x200)
	c.Update(0x200, true)
	if st := c.Stats(); st.StaticExecs != 0 || st.DynamicExecs != 1 {
		t.Errorf("a hint set after NewCombined reached the wrapper: %+v", st)
	}
	c.Predict(0x100)
	c.Update(0x100, true)
	if got := h.Hints(); len(got) != 2 || got[0] != before[0] {
		t.Errorf("hint database changed: %v", got)
	}
}
