package telemetry

import (
	"testing"

	"branchsim/internal/xrand"
)

func TestSpaceSavingExactWhenUnderCapacity(t *testing.T) {
	s := newSpaceSaving(8)
	counts := map[uint64]uint64{10: 5, 20: 3, 30: 7, 40: 1}
	for pc, n := range counts {
		for i := uint64(0); i < n; i++ {
			s.Add(pc)
		}
	}
	top := s.Top(0)
	if len(top) != len(counts) {
		t.Fatalf("tracked %d keys, want %d", len(top), len(counts))
	}
	for _, c := range top {
		if c.Count != counts[c.PC] {
			t.Errorf("pc %d: count %d, want %d", c.PC, c.Count, counts[c.PC])
		}
		if c.MaxError != 0 {
			t.Errorf("pc %d: max error %d under capacity, want 0", c.PC, c.MaxError)
		}
	}
	if top[0].PC != 30 || top[1].PC != 10 {
		t.Errorf("order = %v, want 30 then 10 first", top)
	}
}

func TestSpaceSavingHeavyHitterGuarantee(t *testing.T) {
	// One key takes 40% of a stream over many distinct keys; with k=16 the
	// space-saving guarantee (true count > N/k is always tracked) applies,
	// and the reported count must bracket the truth: true ≤ reported ≤
	// true + MaxError.
	const heavy, total = uint64(0xbeef), 10_000
	s := newSpaceSaving(16)
	rng := xrand.New(7)
	var heavyTrue uint64
	for i := 0; i < total; i++ {
		if rng.Bool(0.4) {
			s.Add(heavy)
			heavyTrue++
		} else {
			s.Add(uint64(rng.Intn(2000)))
		}
	}
	for _, c := range s.Top(0) {
		if c.PC == heavy {
			if c.Count < heavyTrue || c.Count > heavyTrue+c.MaxError {
				t.Fatalf("heavy hitter count %d (err %d) does not bracket true %d", c.Count, c.MaxError, heavyTrue)
			}
			return
		}
	}
	t.Fatal("heavy hitter fell out of the sketch")
}

func TestSpaceSavingBounded(t *testing.T) {
	s := newSpaceSaving(4)
	for i := uint64(0); i < 10_000; i++ {
		s.Add(i) // all distinct: worst case for the sketch
	}
	if s.Len() != 4 {
		t.Fatalf("len = %d, want 4", s.Len())
	}
	if n := len(s.Top(2)); n != 2 {
		t.Fatalf("Top(2) returned %d entries", n)
	}
}

func TestSpaceSavingDeterministic(t *testing.T) {
	stream := func() *spaceSaving {
		s := newSpaceSaving(4)
		rng := xrand.New(42)
		for i := 0; i < 5000; i++ {
			s.Add(uint64(rng.Intn(64)))
		}
		return s
	}
	a, b := stream().Top(0), stream().Top(0)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("entry %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// naiveSketch is space-saving written from its definition, with a linear
// scan for the key and for the minimum, to hold the sketch's lookup table
// and heap to.
type naiveSketch struct {
	k     int
	items []Counted
}

func (n *naiveSketch) add(pc uint64) {
	for i := range n.items {
		if n.items[i].PC == pc {
			n.items[i].Count++
			return
		}
	}
	if len(n.items) < n.k {
		n.items = append(n.items, Counted{PC: pc, Count: 1})
		return
	}
	m := 0
	for i, it := range n.items {
		if it.Count < n.items[m].Count || it.Count == n.items[m].Count && it.PC < n.items[m].PC {
			m = i
		}
	}
	n.items[m] = Counted{PC: pc, Count: n.items[m].Count + 1, MaxError: n.items[m].Count}
}

func TestSpaceSavingMatchesNaive(t *testing.T) {
	for _, k := range []int{1, 2, 3, 16, 40} {
		for _, keys := range []int{2, 50, 5000} {
			s := newSpaceSaving(k)
			ref := naiveSketch{k: k}
			rng := xrand.New(uint64(k*keys + 1))
			for i := 0; i < 3000; i++ {
				// Multiples of a large power of two share their hash's low
				// bits, which packs them into long probe runs.
				pc := uint64(rng.Intn(keys)) << (20 * (i % 2))
				s.Add(pc)
				ref.add(pc)
				if s.Len() != len(ref.items) {
					t.Fatalf("k=%d keys=%d step %d: tracks %d keys, want %d", k, keys, i, s.Len(), len(ref.items))
				}
				cells := 0
				for _, c := range s.tab {
					if c != nil {
						cells++
					}
				}
				if cells != s.Len() {
					t.Fatalf("k=%d keys=%d step %d: %d table cells hold %d keys", k, keys, i, cells, s.Len())
				}
				for _, it := range ref.items {
					c := s.tab[s.cell(it.PC)]
					if c == nil || c.count != it.Count || c.err != it.MaxError {
						t.Fatalf("k=%d keys=%d step %d: key %#x is %+v, want %+v", k, keys, i, it.PC, c, it)
					}
				}
			}
		}
	}
}
