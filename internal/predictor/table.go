package predictor

// ctrMax is the saturation value of a 2-bit counter; ctrInit is the power-on
// value (weakly not-taken). The taken threshold is the counter's MSB, i.e.
// values 2 and 3 predict taken.
const (
	ctrMax       = 3
	ctrInit      = 1
	ctrThreshold = 2
)

// table is a power-of-two array of 2-bit saturating up/down counters with
// optional per-entry PC tags for collision instrumentation.
//
// Counters are stored one per byte: the simulator is memory-bound on real
// table sizes (≤ 256K entries), and byte access keeps Read/Update branch-free
// and fast, while SizeBits still reports the architectural 2 bits per entry.
type table struct {
	ctr  []uint8
	tags []uint64 // nil unless collision tracking enabled; tag = pc+1 (0 = never used)
	// switches counts per-entry ownership changes (reads whose PC mismatched
	// the tag) for the table-introspection sharing histogram; nil unless
	// enableStats was called, so collision-only runs pay one nil check.
	switches []uint32
	mask     uint64
}

func newTable(entries int) *table {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("predictor: table entries must be a positive power of two")
	}
	t := &table{ctr: make([]uint8, entries), mask: uint64(entries - 1)}
	t.reset()
	return t
}

func (t *table) reset() {
	for i := range t.ctr {
		t.ctr[i] = ctrInit
	}
	if t.tags != nil {
		t.tags = make([]uint64, len(t.ctr))
	}
	if t.switches != nil {
		t.switches = make([]uint32, len(t.ctr))
	}
}

func (t *table) entries() int { return len(t.ctr) }

// sizeBits is the architectural storage: 2 bits per counter. Tags are
// instrumentation, not hardware, and are excluded — as in the paper, which
// counted collisions in software while costing only the counter arrays.
func (t *table) sizeBits() int { return 2 * len(t.ctr) }

func (t *table) enableTags() {
	if t.tags == nil {
		t.tags = make([]uint64, len(t.ctr))
	}
}

// enableStats turns on everything table introspection needs: tags (for
// occupancy and switch detection) plus the per-entry switch counters.
func (t *table) enableStats() {
	t.enableTags()
	if t.switches == nil {
		t.switches = make([]uint32, len(t.ctr))
	}
}

// read returns the counter at idx and whether the access collided (the entry
// was last used by a different PC). It installs pc as the entry's tag.
func (t *table) read(idx, pc uint64) (ctr uint8, collided bool) {
	idx &= t.mask
	return t.ctr[idx], tagReadU(t.tags, t.switches, int(idx), pc) != 0
}

// entry names the entry read at idx, for EntryReporter.
func (t *table) entry(name string, idx uint64) Entry { return Entry{name, idx & t.mask} }

// taken reports the direction a counter value predicts.
func taken(ctr uint8) bool { return ctr >= ctrThreshold }

// dir is taken as a 0/1 bit: the counter's most significant bit.
func dir(ctr uint8) uint64 { return uint64(ctr >> 1) }

// update trains the counter at idx toward the outcome.
func (t *table) update(idx uint64, outcome bool) { t.train(idx, b2u(outcome), 1) }

// train is ctrStep on the counter at idx.
func (t *table) train(idx, d, en uint64) {
	i := idx & t.mask
	t.ctr[i] = ctrStep(t.ctr[i], d, en)
}

// hoist returns t's counter, tag and switch slices clipped to n entries, for
// a block kernel to keep in locals. Clipped slices indexed with int(x)&(n-1),
// after a check that n > 0 (always true of a built table), let the prove
// pass drop the loop's bounds checks. tags and switches stay nil while their
// instrumentation is off.
func (t *table) hoist(n int) ([]uint8, []uint64, []uint32) {
	tags, switches := t.tags, t.switches
	if tags != nil {
		tags = tags[:n]
	}
	if switches != nil {
		switches = switches[:n]
	}
	return t.ctr[:n], tags, switches
}

// The helpers below are the branch-free vocabulary every table predictor's
// steps are written in. A 2-bit counter's prediction, the majority vote, the
// chooser and the partial-update policy are all functions of a few 0/1 bits;
// computing them with masks instead of control flow matters because these
// bits track the branch being simulated — exactly the hard-to-predict data
// on which the host CPU's own predictor fails, at ~15 cycles per mispredict,
// several times per event.

// b2u converts a bool to 0/1 (the compiler lowers this branch-free).
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// nz is 1 when x is non-zero, 0 otherwise, branch-free.
func nz(x uint64) uint64 { return (x | -x) >> 63 }

// ctrStep returns 2-bit counter c trained toward direction d (1 = taken)
// when en is 1, unchanged when en is 0. The saturation guards are arithmetic
// on the counter's two bits: (c^3+3)>>2 is 1 unless c is saturated up,
// (c+3)>>2 is 1 unless c is zero.
func ctrStep(c uint8, d, en uint64) uint8 {
	cc := uint64(c)
	inc := en & d & (((cc ^ 3) + 3) >> 2)
	dec := en & (d ^ 1) & ((cc + 3) >> 2)
	return uint8(cc + inc - dec)
}

// tagReadU is the tag half of a table read on hoisted slices: it reports as
// 0/1 whether the (pre-masked) entry was last used by a different PC,
// installs pc as its tag, and counts the ownership switch when switch
// counting is on. The nil checks are loop-invariant, so the host predicts
// them; the collision itself is pure arithmetic. The single guarded block
// keeps its inlining cost low enough for table.read to inline as well.
func tagReadU(tags []uint64, switches []uint32, idx int, pc uint64) (col uint64) {
	if tags != nil {
		old := tags[idx]
		tags[idx] = pc + 1
		col = nz(old) & nz(old^(pc+1))
		if switches != nil {
			switches[idx] += uint32(col)
		}
	}
	return col
}

// ghr is a global branch history register of fixed length.
type ghr struct {
	bits uint64
	mask uint64 // the low len bits
	len  int
}

func newGHR(length int) ghr {
	length = min(max(length, 0), 64)
	return ghr{mask: histMask(length), len: length}
}

// histMask is the mask of the low n bits, n ≤ 64.
func histMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << n) - 1
}

// shiftIn inserts outcome bit o into history h kept to the bits of mask hm.
func shiftIn(h, o, hm uint64) uint64 { return (h<<1 | o) & hm }

func (g *ghr) shift(taken bool) { g.bits = shiftIn(g.bits, b2u(taken), g.mask) }

// value returns the low n bits of the history (n ≤ g.len assumed by callers).
func (g *ghr) value(n int) uint64 { return g.bits & histMask(n) }

func (g *ghr) reset() { g.bits = 0 }

// sizeBits of the history register itself.
func (g *ghr) sizeBits() int { return g.len }
