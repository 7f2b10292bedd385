package predictor

import (
	"testing"
	"testing/quick"
)

func TestTableRejectsBadSizes(t *testing.T) {
	for _, n := range []int{0, -1, 3, 12, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("newTable(%d) did not panic", n)
				}
			}()
			newTable(n)
		}()
	}
}

func TestCounterSaturation(t *testing.T) {
	tb := newTable(4)
	// saturate up
	for i := 0; i < 10; i++ {
		tb.update(0, true)
	}
	if c, _ := tb.read(0, 0); c != ctrMax {
		t.Fatalf("counter did not saturate high: %d", c)
	}
	// saturate down
	for i := 0; i < 10; i++ {
		tb.update(0, false)
	}
	if c, _ := tb.read(0, 0); c != 0 {
		t.Fatalf("counter did not saturate low: %d", c)
	}
}

func TestCounterInitWeaklyNotTaken(t *testing.T) {
	tb := newTable(8)
	for i := uint64(0); i < 8; i++ {
		c, _ := tb.read(i, 0)
		if c != ctrInit {
			t.Fatalf("entry %d initialized to %d, want %d", i, c, ctrInit)
		}
		if taken(c) {
			t.Fatalf("weakly-not-taken counter predicts taken")
		}
	}
}

func TestCounterHysteresis(t *testing.T) {
	// From strongly taken, one not-taken must not flip the prediction;
	// two must.
	tb := newTable(2)
	for i := 0; i < 4; i++ {
		tb.update(1, true)
	}
	tb.update(1, false)
	if c, _ := tb.read(1, 0); !taken(c) {
		t.Fatalf("single contrary outcome flipped a strong counter")
	}
	tb.update(1, false)
	if c, _ := tb.read(1, 0); taken(c) {
		t.Fatalf("two contrary outcomes did not flip the counter")
	}
}

func TestStrengthenNeverFlips(t *testing.T) {
	// Re-enforcement is the partial-update enable on a correct prediction:
	// a counter moves toward the outcome only if it already agrees with it.
	strengthen := func(c uint8, d uint64) uint8 { return ctrStep(c, d, partial(0, 1, dir(c), d)) }
	// counter starts at 1 (not taken); strengthen toward taken must not move it up
	if c := strengthen(ctrInit, 1); c != ctrInit {
		t.Fatalf("strengthen flipped/moved a disagreeing counter: %d", c)
	}
	// strengthen toward not-taken should move it to 0
	if c := strengthen(ctrInit, 0); c != 0 {
		t.Fatalf("strengthen did not re-enforce an agreeing counter: %d", c)
	}
}

func TestCollisionTags(t *testing.T) {
	tb := newTable(4)
	tb.enableTags()

	// first access: never a collision
	if _, col := tb.read(2, 0x100); col {
		t.Fatalf("first access reported a collision")
	}
	// same pc again: no collision
	if _, col := tb.read(2, 0x100); col {
		t.Fatalf("same-pc access reported a collision")
	}
	// different pc, same entry: collision
	if _, col := tb.read(2, 0x104); !col {
		t.Fatalf("aliasing access not reported as collision")
	}
	// and the tag now holds the new pc
	if _, col := tb.read(2, 0x104); col {
		t.Fatalf("tag not updated at lookup")
	}
	// pc 0 must be distinguishable from 'never used'
	if _, col := tb.read(3, 0); col {
		t.Fatalf("pc 0 collided with empty tag")
	}
	if _, col := tb.read(3, 4); !col {
		t.Fatalf("pc 0 tag not installed")
	}
}

func TestTableIndexMasking(t *testing.T) {
	tb := newTable(8)
	tb.update(8, true) // aliases to entry 0
	tb.update(8, true)
	if c, _ := tb.read(0, 0); !taken(c) {
		t.Fatalf("index not masked to table size")
	}
}

func TestResetClearsCountersAndTags(t *testing.T) {
	tb := newTable(4)
	tb.enableTags()
	tb.read(1, 0x40)
	tb.update(1, true)
	tb.update(1, true)
	tb.reset()
	if c, _ := tb.read(1, 0x80); c != ctrInit {
		t.Fatalf("reset did not restore counters")
	}
	// after reset, the tag array must be cleared: a fresh read is not a
	// collision even though 0x40 touched the entry before reset
	tb.reset()
	if _, col := tb.read(1, 0x99); col {
		t.Fatalf("reset did not clear tags")
	}
}

func TestGHRShiftAndMask(t *testing.T) {
	g := newGHR(4)
	for _, taken := range []bool{true, false, true, true} {
		g.shift(taken)
	}
	if got := g.value(4); got != 0b1011 {
		t.Fatalf("history = %04b, want 1011", got)
	}
	g.shift(true) // the oldest bit must fall off
	if got := g.value(4); got != 0b0111 {
		t.Fatalf("history after overflow = %04b, want 0111", got)
	}
	if got := g.value(2); got != 0b11 {
		t.Fatalf("partial history = %02b, want 11", got)
	}
}

func TestGHRLengthClamping(t *testing.T) {
	if g := newGHR(-3); g.len != 0 {
		t.Fatalf("negative length not clamped: %d", g.len)
	}
	if g := newGHR(100); g.len != 64 {
		t.Fatalf("length > 64 not clamped: %d", g.len)
	}
	g := newGHR(64)
	for i := 0; i < 100; i++ {
		g.shift(true)
	}
	if g.value(64) != ^uint64(0) {
		t.Fatalf("64-bit history mishandled")
	}
}

func TestGHRZeroLength(t *testing.T) {
	g := newGHR(0)
	g.shift(true)
	g.shift(true)
	if g.value(0) != 0 {
		t.Fatalf("zero-length history returned bits")
	}
}

// Property: a table never predicts outside {0..3} and update/read are
// consistent under random operation sequences.
func TestTableCounterRangeProperty(t *testing.T) {
	f := func(ops []bool, idx uint8) bool {
		tb := newTable(16)
		for _, o := range ops {
			tb.update(uint64(idx), o)
			c, _ := tb.read(uint64(idx), 1)
			if c > ctrMax {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
