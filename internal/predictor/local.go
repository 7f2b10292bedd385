package predictor

// Local is a two-level per-address predictor (PAg in Yeh & Patt's taxonomy):
// a first-level table of per-branch history registers indexed by address,
// and a shared second-level pattern table of 2-bit counters indexed by the
// branch's own recent history. It captures self-history patterns (e.g. loop
// trip counts) that global schemes dilute.
//
// The byte budget is split evenly: half to the history table (histLen bits
// per entry), half to the pattern table.
type Local struct {
	hists     []uint16
	histMask  uint64
	histLen   int
	pht       *table
	collision bool
	lIdx      uint64
	lHistIdx  uint64
}

// localHistLen is the per-branch history length; 10 bits covers loop trip
// counts up to 1024, the classic configuration.
const localHistLen = 10

// NewLocal builds a PAg predictor within sizeBytes of storage.
func NewLocal(sizeBytes int) *Local {
	half := sizeBytes / 2
	if half < 1 {
		half = 1
	}
	// History entries of histLen bits: largest power of two within half.
	he := 1
	for (he*2*localHistLen+7)/8 <= half {
		he *= 2
	}
	if he < 2 {
		he = 2
	}
	pht := newTable(entriesForBytes(half))
	return &Local{
		hists:    make([]uint16, he),
		histMask: uint64(he - 1),
		histLen:  localHistLen,
		pht:      pht,
	}
}

// Name implements Predictor.
func (p *Local) Name() string { return "local" }

// SizeBits implements Predictor.
func (p *Local) SizeBits() int {
	return len(p.hists)*p.histLen + p.pht.sizeBits()
}

// Predict implements Predictor.
func (p *Local) Predict(pc uint64) bool {
	p.lHistIdx = pcIndex(pc) & p.histMask
	h := uint64(p.hists[p.lHistIdx]) & ((1 << p.histLen) - 1)
	p.lIdx = h
	c, col := p.pht.read(p.lIdx, pc)
	p.collision = col
	return taken(c)
}

// Update implements Predictor.
func (p *Local) Update(_ uint64, outcome bool) {
	p.pht.update(p.lIdx, outcome)
	h := p.hists[p.lHistIdx] << 1
	if outcome {
		h |= 1
	}
	p.hists[p.lHistIdx] = h & ((1 << p.histLen) - 1)
}

// Reset implements Predictor.
func (p *Local) Reset() {
	for i := range p.hists {
		p.hists[i] = 0
	}
	p.pht.reset()
	p.collision = false
}

// EnableCollisionTracking implements Collider.
func (p *Local) EnableCollisionTracking() { p.pht.enableTags() }

// LastCollision implements Collider.
func (p *Local) LastCollision() bool { return p.collision }

// LastEntries implements EntryReporter. The per-branch history table
// carries no collision tag, so only the pattern table is reported.
func (p *Local) LastEntries(_ uint64, dst []Entry) []Entry {
	return append(dst, p.pht.entry("pht", p.lIdx))
}
