// Package pcslot numbers static branches densely. An Index maps each branch
// address added to it to a slot — 0, 1, 2, … in the order the addresses were
// added — through a flat open-addressed table, so per-branch state can live
// in plain slices indexed by slot instead of in a map keyed by address.
//
// Lookups are what the simulator's hot loops pay per dynamic branch (the
// static+dynamic predictor's hint lookup, the profile database's counters),
// so Slot is written to inline into its callers: one multiply, one table
// load and a compare in the common case. Static branch populations are
// small (tens to a few thousand sites), and the table is kept at most an
// eighth full, so a probe rarely goes past its first entry: each probe that
// does costs the host a mispredicted branch. At half full, on the
// workloads' own branch addresses, 10–40% of lookups took a second probe
// and a lookup cost ~30% more.
package pcslot

// entry is one table cell: a branch address and its slot s, stored as the
// odd number 2s+1 so that 0 marks an empty cell and address 0 stays a
// valid key.
type entry struct {
	pc  uint64
	tag uint32
}

// Index maps branch addresses to dense slots. The zero Index is empty and
// ready to use.
type Index struct {
	tab   []entry // power-of-two length, at most 1/maxLoad full; nil when empty
	mask  uint64  // len(tab) - 1
	shift uint    // 64 - log2(len(tab)): hash keeps the product's top bits
	pcs   []uint64
}

const (
	minTable = 16        // the smallest table an Index allocates
	maxLoad  = 8         // the table grows before it is more than 1/maxLoad full
	maxSlots = 1<<31 - 1 // so that every tag 2s+1 fits its 32 bits
)

// hash is Fibonacci hashing: the top bits of pc times 2^64/φ. Branch
// addresses are word-aligned and clustered; the multiply spreads both the
// alignment zeros and the cluster's common high bits over the whole table.
func hash(pc uint64, shift uint) uint64 { return (pc * 0x9e3779b97f4a7c15) >> shift }

// Slot returns pc's slot, or -1 when pc was never added. A probe stops at
// the cell holding pc or at an empty one, and one arithmetic test tells
// both from a cell to step over: (e.pc^pc)*e.tag is zero exactly when the
// addresses match or the tag is 0, because an odd tag is invertible mod
// 2^64. A lookup that misses is as common as one that hits (the static
// filter looks every branch up, hinted or not), and a branch on which of
// the two it was would be mispredicted half the time; the tag then maps to
// the slot with arithmetic too, 0 to -1 and 2s+1 to s.
func (x *Index) Slot(pc uint64) int {
	i := hash(pc, x.shift)
	for len(x.tab) != 0 {
		e := &x.tab[i&x.mask]
		if (e.pc^pc)*uint64(e.tag) == 0 {
			return (int(e.tag)+1)>>1 - 1
		}
		i++
	}
	return -1
}

// Add returns pc's slot, giving pc the next free slot when it has none.
func (x *Index) Add(pc uint64) int {
	if s := x.Slot(pc); s >= 0 {
		return s
	}
	if len(x.pcs) >= maxSlots {
		panic("pcslot: index full")
	}
	if maxLoad*(len(x.pcs)+1) > len(x.tab) {
		x.grow()
	}
	x.insert(pc, len(x.pcs))
	x.pcs = append(x.pcs, pc)
	return len(x.pcs) - 1
}

// insert places pc with its slot in the first empty cell of its probe
// sequence. The table has room: Add grows it first.
func (x *Index) insert(pc uint64, slot int) {
	i := hash(pc, x.shift)
	for x.tab[i&x.mask].tag != 0 {
		i++
	}
	x.tab[i&x.mask] = entry{pc: pc, tag: uint32(2*slot + 1)}
}

// grow doubles the table (or allocates the first one) and re-inserts every
// address under its existing slot.
func (x *Index) grow() {
	n := max(2*len(x.tab), minTable)
	x.tab = make([]entry, n)
	x.mask = uint64(n - 1)
	x.shift = 64
	for m := n; m > 1; m >>= 1 {
		x.shift--
	}
	for s, pc := range x.pcs {
		x.insert(pc, s)
	}
}

// Len returns the number of addresses added.
func (x *Index) Len() int { return len(x.pcs) }

// PCs returns the added addresses in slot order: PCs()[s] is slot s's
// address. The slice is the index's own; callers must not modify it.
func (x *Index) PCs() []uint64 { return x.pcs }

// Bit returns 1 for true and 0 for false; the compiler lowers it
// branch-free. The slot-indexed loops count outcomes with it, which the
// host cannot predict.
func Bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
