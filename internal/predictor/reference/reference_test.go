package reference

import (
	"reflect"
	"testing"
)

// A golden stream is worked out by hand, event by event, in the comments
// below; the test checks the reference against the hand result. Both tables
// have four counters (1 byte), so a few branches alias on purpose.
//
// Per-event classes: '.' correct, 'x' mispredicted, 'c' a constructive
// collision (collided, correct), 'D' a destructive one (collided, wrong).

// Bimodal stream. Word addresses: A=0x100 → 0x40, B=0x110 → 0x44, both
// counter 0; C=0x104 → counter 1; D=0x108 → counter 2.
const (
	pcA = 0x100
	pcB = 0x110
	pcC = 0x104
	pcD = 0x108
)

var bimodalPCs = []uint64{pcA, pcB, pcA, pcC, pcA, pcB, pcC, pcA, pcD, pcB, pcA, pcC}
var bimodalTaken = []bool{true, false, true, true, true, false, true, false, false, false, true, false}

// Counters start [1 1 1 1].
//
//	 1 A ctr0=1 N, T: x          ctr0=2 owner A
//	 2 B ctr0=2 T, N: D (A's)    ctr0=1 owner B
//	 3 A ctr0=1 N, T: D (B's)    ctr0=2 owner A
//	 4 C ctr1=1 N, T: x          ctr1=2 owner C
//	 5 A ctr0=2 T, T: .          ctr0=3
//	 6 B ctr0=3 T, N: D          ctr0=2 owner B
//	 7 C ctr1=2 T, T: .          ctr1=3
//	 8 A ctr0=2 T, N: D          ctr0=1 owner A
//	 9 D ctr2=1 N, N: .          ctr2=0
//	10 B ctr0=1 N, N: c          ctr0=0 owner B
//	11 A ctr0=0 N, T: D          ctr0=1 owner A
//	12 C ctr1=3 T, N: x          ctr1=2
func TestGoldenBimodal(t *testing.T) {
	p := NewBimodal(1)
	r := Run(&Combined{Dyn: p}, bimodalPCs, bimodalTaken)
	checkClasses(t, r, "xDDx.D.D.cDx")
	checkTotals(t, r, Result{Branches: 12, Taken: 6, Mispredicts: 8, Collisions: 6, Constructive: 1, Destructive: 5, DynamicExecs: 12})
	if want := []Counter{1, 2, 0, 1}; !reflect.DeepEqual(p.Table.Counters, want) {
		t.Errorf("counters %v, want %v", p.Table.Counters, want)
	}
	wantSites := map[uint64]*Site{
		pcA: {Exec: 5, Taken: 4, Correct: 1, Dcol: 3},
		pcB: {Exec: 3, Taken: 0, Correct: 1, Dcol: 2},
		pcC: {Exec: 3, Taken: 2, Correct: 1, Dcol: 0},
		pcD: {Exec: 1, Taken: 0, Correct: 1, Dcol: 0},
	}
	if !reflect.DeepEqual(r.Sites, wantSites) {
		t.Errorf("sites %v, want %v", fmtSites(r.Sites), fmtSites(wantSites))
	}
}

// The same stream with B hinted not-taken: B's three executions are static
// and correct, and A no longer shares counter 0, so every destructive
// collision disappears — the paper's point.
//
//	1 A ctr0=1 N, T: x   ctr0=2        7 C ctr1=2 T, T: .   ctr1=3
//	2 B static N: .                    8 A ctr0=3 T, N: x   ctr0=2
//	3 A ctr0=2 T, T: .   ctr0=3        9 D ctr2=1 N, N: .   ctr2=0
//	4 C ctr1=1 N, T: x   ctr1=2       10 B static N: .
//	5 A ctr0=3 T, T: .                11 A ctr0=2 T, T: .   ctr0=3
//	6 B static N: .                   12 C ctr1=3 T, N: x   ctr1=2
func TestGoldenBimodalFiltered(t *testing.T) {
	p := NewBimodal(1)
	c := &Combined{Dyn: p, Hints: map[uint64]bool{pcB: false}}
	r := Run(c, bimodalPCs, bimodalTaken)
	checkClasses(t, r, "x..x...x...x")
	checkTotals(t, r, Result{Branches: 12, Taken: 6, Mispredicts: 4, StaticExecs: 3, DynamicExecs: 9})
	if want := []Counter{3, 2, 0, 1}; !reflect.DeepEqual(p.Table.Counters, want) {
		t.Errorf("counters %v, want %v", p.Table.Counters, want)
	}
}

// Gshare stream: P=0x0 (word 0) alternates T, N; Q=0x4 (word 1) is always
// taken. Index = word XOR h over four counters, h two bits.
var gsharePCs = []uint64{0x0, 0x4, 0x0, 0x4, 0x0, 0x4, 0x0, 0x4}
var gshareTaken = []bool{true, true, false, true, true, true, false, true}

// Counters start [1 1 1 1], h=0.
//
//	1 P idx 0^0=0 ctr=1 N, T: x          ctr0=2 owner P  h=1
//	2 Q idx 1^1=0 ctr=2 T, T: c (P's)    ctr0=3 owner Q  h=3
//	3 P idx 0^3=3 ctr=1 N, N: .          ctr3=0 owner P  h=2
//	4 Q idx 1^2=3 ctr=0 N, T: D (P's)    ctr3=1 owner Q  h=1
//	5 P idx 0^1=1 ctr=1 N, T: x          ctr1=2 owner P  h=3
//	6 Q idx 1^3=2 ctr=1 N, T: x          ctr2=2 owner Q  h=3
//	7 P idx 0^3=3 ctr=1 N, N: c (Q's)    ctr3=0 owner P  h=2
//	8 Q idx 1^2=3 ctr=0 N, T: D (P's)    ctr3=1 owner Q  h=1
func TestGoldenGShare(t *testing.T) {
	p := NewGShare(1)
	r := Run(&Combined{Dyn: p}, gsharePCs, gshareTaken)
	checkClasses(t, r, "xc.DxxcD")
	checkTotals(t, r, Result{Branches: 8, Taken: 6, Mispredicts: 5, Collisions: 4, Constructive: 2, Destructive: 2, DynamicExecs: 8})
	checkGShare(t, p, []Counter{3, 2, 2, 1}, 1)
}

// P hinted taken, NoShift: the history sees Q's outcomes only.
//
//	1 P static T, T: .                   5 P static T, T: .
//	2 Q idx 1^0=1 ctr=1 N, T: x ctr1=2 h=1   6 Q idx 1^3=2 ctr=1 N, T: x ctr2=2 h=3
//	3 P static T, N: x                   7 P static T, N: x
//	4 Q idx 1^1=0 ctr=1 N, T: x ctr0=2 h=3   8 Q idx 1^3=2 ctr=2 T, T: . ctr2=3 h=3
//
// ShiftOutcome: P's outcomes still enter the history, untrained.
//
//	1 P static: .  h=1                   5 P static: .  h=3
//	2 Q idx 1^1=0 ctr=1 N, T: x ctr0=2 h=3   6 Q idx 1^3=2 ctr=1 N, T: x ctr2=2 h=3
//	3 P static: x  h=2                   7 P static: x  h=2
//	4 Q idx 1^2=3 ctr=1 N, T: x ctr3=2 h=1   8 Q idx 1^2=3 ctr=2 T, T: . ctr3=3 h=1
//
// Same scores, different state: the two policies train different counters.
//
// ShiftStatic: P's hint, always taken, enters the history instead, so from
// event 3 on the history is all ones and Q keeps to counter 2.
//
//	1 P static: .  h=1                   5 P static: .  h=3
//	2 Q idx 1^1=0 ctr=1 N, T: x ctr0=2 h=3   6 Q idx 1^3=2 ctr=2 T, T: . ctr2=3 h=3
//	3 P static: x  h=3                   7 P static: x  h=3
//	4 Q idx 1^3=2 ctr=1 N, T: x ctr2=2 h=3   8 Q idx 1^3=2 ctr=3 T, T: . ctr2=3 h=3
func TestGoldenGShareFiltered(t *testing.T) {
	for _, tc := range []struct {
		shiftOutcome, shiftHint bool
		classes                 string
		mispredicts             uint64
		counters                []Counter
		history                 uint64
	}{
		{false, false, ".xxx.xx.", 5, []Counter{2, 2, 3, 1}, 3},
		{true, false, ".xxx.xx.", 5, []Counter{2, 1, 2, 3}, 1},
		{false, true, ".xxx..x.", 4, []Counter{2, 1, 3, 1}, 3},
	} {
		p := NewGShare(1)
		c := &Combined{Dyn: p, Hints: map[uint64]bool{0x0: true}, ShiftOutcome: tc.shiftOutcome, ShiftHint: tc.shiftHint}
		r := Run(c, gsharePCs, gshareTaken)
		checkClasses(t, r, tc.classes)
		checkTotals(t, r, Result{Branches: 8, Taken: 6, Mispredicts: tc.mispredicts, StaticExecs: 4, StaticMispred: 2, DynamicExecs: 4})
		checkGShare(t, p, tc.counters, tc.history)
	}
}

func TestNewTableSizes(t *testing.T) {
	for bytes, want := range map[int]int{1: 4, 2: 8, 3: 8, 1024: 4096, 1023: 2048, 8192: 32768} {
		if got := len(NewTable(bytes).Counters); got != want {
			t.Errorf("NewTable(%d) has %d counters, want %d", bytes, got, want)
		}
	}
	if g := NewGShare(1024); g.Bits != 12 {
		t.Errorf("1KB gshare history %d bits, want 12", g.Bits)
	}
}

func checkClasses(t *testing.T, r Result, want string) {
	t.Helper()
	got := make([]byte, len(r.Correct))
	for i := range got {
		switch {
		case r.Collided[i] && r.Correct[i]:
			got[i] = 'c'
		case r.Collided[i]:
			got[i] = 'D'
		case r.Correct[i]:
			got[i] = '.'
		default:
			got[i] = 'x'
		}
	}
	if string(got) != want {
		t.Errorf("classes %s, want %s", got, want)
	}
}

func checkTotals(t *testing.T, r Result, want Result) {
	t.Helper()
	r.Correct, r.Collided, r.Sites = nil, nil, nil
	if !reflect.DeepEqual(r, want) {
		t.Errorf("totals %+v, want %+v", r, want)
	}
}

func checkGShare(t *testing.T, p *GShare, counters []Counter, history uint64) {
	t.Helper()
	if !reflect.DeepEqual(p.Table.Counters, counters) || p.History != history {
		t.Errorf("counters %v h=%d, want %v h=%d", p.Table.Counters, p.History, counters, history)
	}
}

func fmtSites(m map[uint64]*Site) map[uint64]Site {
	out := map[uint64]Site{}
	for pc, s := range m {
		out[pc] = *s
	}
	return out
}
