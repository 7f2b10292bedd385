package pcslot

import (
	"encoding/binary"
	"testing"
)

func TestIndexNumbersInAddOrder(t *testing.T) {
	var x Index
	if x.Slot(0) != -1 || x.Slot(0x400) != -1 || x.Len() != 0 {
		t.Fatalf("zero Index is not empty")
	}
	// Address 0 is a key like any other; re-adding returns the old slot.
	pcs := []uint64{0x400, 0, 0x404, ^uint64(0), 0x400}
	want := []int{0, 1, 2, 3, 0}
	for i, pc := range pcs {
		if got := x.Add(pc); got != want[i] {
			t.Errorf("Add(%#x) = %d, want %d", pc, got, want[i])
		}
	}
	for i, pc := range pcs {
		if got := x.Slot(pc); got != want[i] {
			t.Errorf("Slot(%#x) = %d, want %d", pc, got, want[i])
		}
	}
	if x.Slot(0x408) != -1 {
		t.Errorf("Slot of an absent address is not -1")
	}
	if got := x.PCs(); len(got) != 4 || got[0] != 0x400 || got[1] != 0 || got[3] != ^uint64(0) {
		t.Errorf("PCs() = %#x", got)
	}
}

// TestIndexGrowth adds enough clustered, word-aligned addresses to grow the
// table several times and checks every slot survives each rehash.
func TestIndexGrowth(t *testing.T) {
	var x Index
	const n = 5000
	for i := 0; i < n; i++ {
		if s := x.Add(0x1_2000_0000 + uint64(i)*4); s != i {
			t.Fatalf("Add #%d = %d", i, s)
		}
		if maxLoad*x.Len() > len(x.tab) {
			t.Fatalf("table more than 1/%d full: %d of %d", maxLoad, x.Len(), len(x.tab))
		}
	}
	for i := 0; i < n; i++ {
		if s := x.Slot(0x1_2000_0000 + uint64(i)*4); s != i {
			t.Fatalf("Slot #%d = %d after growth", i, s)
		}
	}
	if x.Slot(0x1_2000_0000+n*4) != -1 {
		t.Fatalf("absent address found")
	}
}

// FuzzIndexMatchesMap checks the index against a map over arbitrary address
// sequences: same slot for every address, -1 for absent ones.
func FuzzIndexMatchesMap(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 64))
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var x Index
		m := map[uint64]int{}
		for len(data) >= 8 {
			pc := binary.LittleEndian.Uint64(data)
			data = data[8:]
			want, ok := m[pc]
			if !ok {
				want = len(m)
				m[pc] = want
			}
			if got := x.Add(pc); got != want {
				t.Fatalf("Add(%#x) = %d, want %d", pc, got, want)
			}
		}
		for pc, want := range m {
			if got := x.Slot(pc); got != want {
				t.Fatalf("Slot(%#x) = %d, want %d", pc, got, want)
			}
			if _, ok := m[pc+4]; !ok && x.Slot(pc+4) != -1 {
				t.Fatalf("Slot(%#x) found an absent address", pc+4)
			}
		}
	})
}
