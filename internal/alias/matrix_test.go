package alias

import "testing"

func TestMatrixBuildsConflictGrid(t *testing.T) {
	a, err := NewAnalyzer("bimodal:16B") // 64 entries
	if err != nil {
		t.Fatal(err)
	}
	pcA := uint64(0x1000)
	pcB := pcA + 64*4 // aliases with A
	// A and B ping-pong over one entry: each eviction is a conflict.
	for i := 0; i < 5; i++ {
		a.Branch(pcA, true)
		a.Branch(pcB, false)
	}

	m := a.Matrix(0)
	if len(m.PCs) != 2 {
		t.Fatalf("PCs = %v, want the two aliasing branches", m.PCs)
	}
	idx := map[uint64]int{}
	for i, pc := range m.PCs {
		idx[pc] = i
	}
	ai, bi := idx[pcA], idx[pcB]
	// B conflicts with A's residue 5 times; A with B's 4 times (first A
	// lookup hits an untouched entry).
	if m.Counts[bi][ai] != 5 || m.Counts[ai][bi] != 4 {
		t.Fatalf("Counts = %v", m.Counts)
	}
	if m.Counts[ai][ai] != 0 || m.Counts[bi][bi] != 0 {
		t.Fatal("diagonal must stay zero: a branch cannot conflict with itself")
	}
	// the pair flips the shared counter each time, so every conflict
	// mispredicts
	if m.Destructive[bi][ai] != m.Counts[bi][ai] || m.Destructive[ai][bi] != m.Counts[ai][bi] {
		t.Fatalf("Destructive = %v, want all conflicts destructive", m.Destructive)
	}
	if m.Dropped != 0 {
		t.Fatalf("Dropped = %d, want 0", m.Dropped)
	}
	if got := m.Labels(); got[0] != "0x1000" && got[1] != "0x1000" {
		t.Fatalf("Labels = %v", got)
	}
}

func TestMatrixTopNDropsColdPairs(t *testing.T) {
	a, _ := NewAnalyzer("bimodal:16B")
	hotA, hotB := uint64(0x1000), uint64(0x1000+64*4)
	coldA, coldB := uint64(0x2004), uint64(0x2004+64*4) // different entry than the hot pair
	for i := 0; i < 10; i++ {
		a.Branch(hotA, true)
		a.Branch(hotB, false)
	}
	a.Branch(coldA, true)
	a.Branch(coldB, true) // one cold conflict

	m := a.Matrix(2)
	if len(m.PCs) != 2 {
		t.Fatalf("PCs = %v, want 2", m.PCs)
	}
	for _, pc := range m.PCs {
		if pc != hotA && pc != hotB {
			t.Fatalf("top-2 selected cold branch 0x%x", pc)
		}
	}
	if m.Dropped != 1 {
		t.Fatalf("Dropped = %d, want the cold pair's 1 conflict", m.Dropped)
	}
}

func TestMatrixRankingIsDeterministic(t *testing.T) {
	build := func() *Matrix {
		a, _ := NewAnalyzer("bimodal:16B")
		for i := 0; i < 3; i++ {
			a.Branch(0x1000, true)
			a.Branch(0x1000+64*4, false)
			a.Branch(0x2000, true)
			a.Branch(0x2000+64*4, false)
		}
		return a.Matrix(4)
	}
	m1, m2 := build(), build()
	if len(m1.PCs) != len(m2.PCs) {
		t.Fatal("nondeterministic PC set size")
	}
	for i := range m1.PCs {
		if m1.PCs[i] != m2.PCs[i] {
			t.Fatalf("ranking order differs: %v vs %v", m1.PCs, m2.PCs)
		}
	}
}
