package alias

import (
	"context"
	"fmt"
	"testing"

	"branchsim/internal/predictor"
	"branchsim/internal/sim"
	"branchsim/internal/workload"
)

// lockstep feeds one stream to a collision-tracking sim.Runner and to an
// Analyzer over the same spec, and records the first event at which the
// analyzer's per-event conflict disagrees with the runner predictor's
// LastCollision.
type lockstep struct {
	r        *sim.Runner
	col      predictor.Collider // the runner's predictor; nil when it reads no table
	a        *Analyzer
	events   uint64
	mismatch string
}

func (l *lockstep) Branch(pc uint64, taken bool) {
	l.r.Branch(pc, taken)
	before := l.a.Conflicts
	l.a.Branch(pc, taken)
	got, want := l.a.Conflicts != before, l.col != nil && l.col.LastCollision()
	if got != want && l.mismatch == "" {
		l.mismatch = fmt.Sprintf("event %d (pc %#x): analyzer conflict %v, LastCollision %v", l.events, pc, got, want)
	}
	l.events++
}

func (l *lockstep) Ops(n uint64) { l.r.Ops(n) }

func TestAnalyzerRejectsUnknownScheme(t *testing.T) {
	if _, err := NewAnalyzer("neural-net:1KB"); err == nil {
		t.Fatal("unsupported scheme accepted")
	}
}

// TestAnalyzerMatchesSimCollisions holds the analyzer to the simulator's
// collision count for every registered scheme: per event its conflict flag
// equals the live predictor's LastCollision with tracking on, and its
// conflict and destructive totals equal sim.Metrics.Collisions.
func TestAnalyzerMatchesSimCollisions(t *testing.T) {
	for _, wl := range []string{"compress", "gcc", "go"} {
		for _, name := range predictor.Names() {
			for _, size := range []string{"1KB", "8KB"} {
				spec := name + ":" + size
				t.Run(wl+"/"+spec, func(t *testing.T) {
					t.Parallel()
					p := predictor.MustNew(spec)
					col, _ := p.(predictor.Collider)
					a, err := NewAnalyzer(spec)
					if err != nil {
						t.Fatal(err)
					}
					l := &lockstep{r: sim.NewRunner(p, sim.WithCollisions()), col: col, a: a}
					if err := workload.Run(context.Background(), wl, workload.InputTest, l); err != nil {
						t.Fatal(err)
					}
					if l.mismatch != "" {
						t.Error(l.mismatch)
					}
					m := l.r.Metrics()
					got := [3]uint64{a.Branches, a.Conflicts, a.Destructive}
					want := [3]uint64{m.Branches, m.Collisions.Total, m.Collisions.Destructive}
					if got != want {
						t.Errorf("analyzer branches, conflicts, destructive = %v, simulator %v", got, want)
					}
				})
			}
		}
	}
}

// TestTAGEMultiBankConflicts: two branches whose addresses differ only far
// above any table's index bits share tage's base entry; conflicts are
// attributed per table, and every table conflict is charged to a pair.
func TestTAGEMultiBankConflicts(t *testing.T) {
	a, err := NewAnalyzer("tage:1KB")
	if err != nil {
		t.Fatal(err)
	}
	pcA := uint64(0x1000)
	pcB := pcA + 4<<20 // same base index at any size this test could pick
	for i := 0; i < 50; i++ {
		a.Branch(pcA, true)
		a.Branch(pcB, false)
	}
	var base, sum uint64
	for _, tb := range a.Tables() {
		sum += tb.Conflicts
		if tb.Name == "base" {
			base = tb.Conflicts
		}
	}
	if base == 0 {
		t.Error("no base-table conflicts between branches sharing a base index")
	}
	var pairs uint64
	for _, p := range a.TopPairs(0) {
		pairs += p.Count
	}
	if pairs != sum {
		t.Errorf("pairs carry %d conflicts, tables %d", pairs, sum)
	}
	if a.Conflicts == 0 || a.Conflicts > sum {
		t.Errorf("%d conflicting branches against %d table conflicts", a.Conflicts, sum)
	}
}

func TestBimodalConflictDetection(t *testing.T) {
	a, err := NewAnalyzer("bimodal:16B") // 64 entries
	if err != nil {
		t.Fatal(err)
	}
	pcA := uint64(0x1000)
	pcB := pcA + 64*4 // same bimodal index
	pcC := pcA + 4    // different index

	// Counter 0 starts at 1 (weakly not taken).
	a.Branch(pcA, true)  // predicts N, wrong; first use, no conflict; ctr 2
	a.Branch(pcC, true)  // no conflict
	a.Branch(pcB, false) // predicts T, wrong: destructive; ctr 1
	a.Branch(pcA, true)  // predicts N, wrong: destructive

	if a.Conflicts != 2 || a.Destructive != 2 {
		t.Fatalf("conflicts = %d, destructive = %d, want 2 and 2 (B evicts A, A evicts B)", a.Conflicts, a.Destructive)
	}
	pairs := a.TopPairs(0)
	if len(pairs) != 2 {
		t.Fatalf("pairs = %v", pairs)
	}
	for _, p := range pairs {
		if p.Destructive != p.Count {
			t.Fatalf("destructive conflict not attributed: %+v", p)
		}
	}
}

// TestConstructiveConflictIsNotDestructive: a conflict whose prediction was
// right is constructive, whatever the two branches' directions; one whose
// prediction was wrong is destructive.
func TestConstructiveConflictIsNotDestructive(t *testing.T) {
	a, _ := NewAnalyzer("bimodal:16B")
	pcA, pcB := uint64(0x1000), uint64(0x1000+64*4)
	// A's first execution mispredicts on a fresh entry; from then on the
	// shared counter predicts taken, and every conflict is right.
	for i := 0; i < 4; i++ {
		a.Branch(pcA, true)
		a.Branch(pcB, true)
	}
	if a.Conflicts != 7 || a.Destructive != 0 {
		t.Fatalf("conflicts = %d, destructive = %d, want 7 constructive", a.Conflicts, a.Destructive)
	}
	a.Branch(pcA, true)  // constructive
	a.Branch(pcB, false) // the saturated counter predicts taken: destructive
	if a.Conflicts != 9 || a.Destructive != 1 {
		t.Fatalf("conflicts = %d, destructive = %d, want 9 and 1", a.Conflicts, a.Destructive)
	}
	for _, p := range a.TopPairs(0) {
		want := uint64(0)
		if p.Victim == pcB {
			want = 1
		}
		if p.Destructive != want {
			t.Errorf("pair %+v: destructive %d, want %d", p, p.Destructive, want)
		}
	}
}

func TestGshareHistorySpreadsConflicts(t *testing.T) {
	// With gshare indexing, one branch with varying history self-spreads;
	// cross-branch conflicts appear when histories align entries.
	a, _ := NewAnalyzer("gshare:8B") // 32 entries
	for i := 0; i < 4000; i++ {
		a.Branch(0x100, i%3 == 0)
		a.Branch(0x104, i%2 == 0)
		a.Branch(0x108, true)
	}
	if a.Conflicts == 0 {
		t.Fatal("no conflicts in a 32-entry gshare under three history-churning branches")
	}
	if len(a.TopPairs(0)) == 0 {
		t.Fatal("no pairs attributed")
	}
}

func TestVictimTotalsAggregates(t *testing.T) {
	a, _ := NewAnalyzer("bimodal:16B")
	pcA, pcB, pcC := uint64(0x1000), uint64(0x1000+64*4), uint64(0x1000+128*4)
	for i := 0; i < 3; i++ {
		a.Branch(pcA, true)
		a.Branch(pcB, false)
		a.Branch(pcC, false)
	}
	victims := a.VictimTotals()
	if len(victims) != 3 {
		t.Fatalf("victims = %v", victims)
	}
	var sum uint64
	for _, v := range victims {
		sum += v.Count
	}
	if sum != a.Conflicts {
		t.Fatalf("victim totals (%d) != conflicts (%d)", sum, a.Conflicts)
	}
}

func TestTopPairsDeterministicOrder(t *testing.T) {
	build := func() []Pair {
		a, _ := NewAnalyzer("bimodal:8B")
		for i := 0; i < 50; i++ {
			a.Branch(uint64(0x1000+(i%7)*32*4), i%2 == 0)
		}
		return a.TopPairs(5)
	}
	p1, p2 := build(), build()
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("pair order not deterministic: %v vs %v", p1, p2)
		}
	}
}

func TestBiasTracking(t *testing.T) {
	a, _ := NewAnalyzer("bimodal:1KB")
	for i := 0; i < 10; i++ {
		a.Branch(0x40, i < 9)
	}
	if b := a.Bias(0x40); b < 0.89 || b > 0.91 {
		t.Fatalf("bias = %v, want 0.9", b)
	}
	if a.Bias(0x999) != 0 {
		t.Fatalf("unseen branch has bias")
	}
}

func TestAnalyzerOnRealWorkload(t *testing.T) {
	a, err := NewAnalyzer("gshare:1KB")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := workload.Get("gcc")
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Run(context.Background(), workload.InputTest, a); err != nil {
		t.Fatal(err)
	}
	if a.Conflicts == 0 || len(a.TopPairs(10)) == 0 {
		t.Fatal("no interference found on gcc in a 4K-entry gshare")
	}
	if a.Dropped() != 0 {
		t.Fatalf("pair map overflowed on a small run: %d dropped", a.Dropped())
	}
	if a.Destructive == 0 || a.Destructive >= a.Conflicts {
		t.Fatalf("%d of %d conflicts destructive, want a proper share", a.Destructive, a.Conflicts)
	}
}
