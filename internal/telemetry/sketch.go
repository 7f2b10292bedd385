package telemetry

import "sort"

// spaceSaving is the stream-summary (space-saving) heavy-hitters sketch of
// Metwally, Agrawal and El Abbadi: it tracks at most k keys in O(k) memory
// and guarantees that any key whose true count exceeds N/k (N = total
// increments) is present, with each reported count overestimating the truth
// by at most the item's err field. Updates are O(log k) via a min-heap over
// counts.
//
// The sketch is fully deterministic for a given increment sequence — the
// telemetry golden tests rely on that.
//
// Add runs once per mispredicted or destructively colliding branch, so the
// key lookup is a flat open-addressed table rather than a Go map: linear
// probing from a Fibonacci hash, at most a quarter full, so a lookup rarely
// goes past its first cell.
type spaceSaving struct {
	k     int
	heap  []*ssItem // min-heap ordered by (count, pc)
	tab   []*ssItem // the tracked items by key; nil cells are empty
	shift uint      // 64 - log2(len(tab)): home keeps the hash's top bits
}

type ssItem struct {
	pc    uint64
	count uint64
	err   uint64 // max overestimation inherited at takeover
	idx   int    // heap index
}

func newSpaceSaving(k int) *spaceSaving {
	k = max(k, 1)
	n, shift := 4, uint(62)
	for n < 4*k {
		n, shift = 2*n, shift-1
	}
	return &spaceSaving{k: k, tab: make([]*ssItem, n), shift: shift}
}

// Add credits key pc with one occurrence.
func (s *spaceSaving) Add(pc uint64) {
	c := s.cell(pc)
	if it := s.tab[c]; it != nil {
		it.count++
		s.down(it.idx)
		return
	}
	if len(s.heap) < s.k {
		it := &ssItem{pc: pc, count: 1, idx: len(s.heap)}
		s.tab[c] = it
		s.heap = append(s.heap, it)
		s.up(it.idx)
		return
	}
	// Full: the minimum-count item hands its slot (and its count, as the
	// new item's error bound) to the newcomer.
	it := s.heap[0]
	s.remove(s.cell(it.pc))
	it.pc = pc
	it.err = it.count
	it.count++
	s.tab[s.cell(pc)] = it // remove may have moved pc's empty cell
	s.down(0)
}

// home is pc's first cell: the top bits of pc times 2^64/φ.
func (s *spaceSaving) home(pc uint64) int { return int(pc * 0x9e3779b97f4a7c15 >> s.shift) }

// cell returns the cell holding pc's item, or the empty cell that ends
// pc's probe when pc is not tracked.
func (s *spaceSaving) cell(pc uint64) int {
	mask := len(s.tab) - 1
	for i := s.home(pc); ; i = (i + 1) & mask {
		if it := s.tab[i]; it == nil || it.pc == pc {
			return i
		}
	}
}

// remove empties cell i and closes the gap behind it (backward-shift
// deletion): each later item of the probe run moves into the gap unless its
// home lies after the gap, so that every probe still reaches its item.
func (s *spaceSaving) remove(i int) {
	mask := len(s.tab) - 1
	for j := (i + 1) & mask; s.tab[j] != nil; j = (j + 1) & mask {
		if (j-s.home(s.tab[j].pc))&mask >= (j-i)&mask {
			s.tab[i] = s.tab[j]
			i = j
		}
	}
	s.tab[i] = nil
}

// Counted is one reported heavy hitter.
type Counted struct {
	PC       uint64
	Count    uint64
	MaxError uint64
}

// Top returns up to n tracked keys ordered by count descending, ties broken
// by ascending PC so the order is reproducible.
func (s *spaceSaving) Top(n int) []Counted {
	out := make([]Counted, 0, len(s.heap))
	for _, it := range s.heap {
		out = append(out, Counted{PC: it.pc, Count: it.count, MaxError: it.err})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].PC < out[j].PC
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Len returns the number of keys currently tracked.
func (s *spaceSaving) Len() int { return len(s.heap) }

// less orders heap items by (count, pc): a total order, so sift behaviour —
// and therefore which item is evicted on ties — is deterministic.
func (s *spaceSaving) less(i, j int) bool {
	a, b := s.heap[i], s.heap[j]
	if a.count != b.count {
		return a.count < b.count
	}
	return a.pc < b.pc
}

func (s *spaceSaving) swap(i, j int) {
	s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
	s.heap[i].idx = i
	s.heap[j].idx = j
}

func (s *spaceSaving) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			return
		}
		s.swap(i, parent)
		i = parent
	}
}

func (s *spaceSaving) down(i int) {
	n := len(s.heap)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && s.less(l, small) {
			small = l
		}
		if r < n && s.less(r, small) {
			small = r
		}
		if small == i {
			return
		}
		s.swap(i, small)
		i = small
	}
}
