package predictor

// McFarling is the classic combining predictor (McFarling 1993): a bimodal
// component, a gshare component, and a PC-indexed chooser of 2-bit counters
// that learns per-branch which component to trust. Both components train on
// every branch (total update); the chooser trains only when the components
// disagree.
//
// The budget splits evenly across the three tables. This predictor is not in
// the paper's evaluated set but serves as a mid-strength hybrid baseline in
// the ablation experiments.
type McFarling struct {
	bimodal   *table
	gshare    *table
	chooser   *table
	hist      ghr
	collision bool

	lBimIdx, lGshIdx, lChoIdx uint64
	lBim, lGsh, lUseGsh       bool
}

// NewMcFarling builds a combining predictor within sizeBytes of storage.
func NewMcFarling(sizeBytes int) *McFarling {
	e := 1
	for (e*12+7)/8 <= sizeBytes { // doubled cost of three equal tables
		e *= 2
	}
	if e < 2 {
		e = 2
	}
	p := &McFarling{
		bimodal: newTable(e),
		gshare:  newTable(e),
		chooser: newTable(e),
	}
	p.hist = newGHR(log2(e))
	return p
}

// Name implements Predictor.
func (p *McFarling) Name() string { return "mcfarling" }

// SizeBits implements Predictor.
func (p *McFarling) SizeBits() int {
	return p.bimodal.sizeBits() + p.gshare.sizeBits() + p.chooser.sizeBits() + p.hist.sizeBits()
}

// Predict implements Predictor.
func (p *McFarling) Predict(pc uint64) bool {
	p.lBimIdx = pcIndex(pc)
	p.lGshIdx = pcIndex(pc) ^ p.hist.value(p.hist.len)
	p.lChoIdx = pcIndex(pc)

	cb, colB := p.bimodal.read(p.lBimIdx, pc)
	cg, colG := p.gshare.read(p.lGshIdx, pc)
	cc, colC := p.chooser.read(p.lChoIdx, pc)
	p.collision = colB || colG || colC

	p.lBim = taken(cb)
	p.lGsh = taken(cg)
	p.lUseGsh = taken(cc)
	if p.lUseGsh {
		return p.lGsh
	}
	return p.lBim
}

// Update implements Predictor.
func (p *McFarling) Update(_ uint64, outcome bool) {
	p.bimodal.update(p.lBimIdx, outcome)
	p.gshare.update(p.lGshIdx, outcome)
	if p.lBim != p.lGsh {
		p.chooser.update(p.lChoIdx, p.lGsh == outcome)
	}
	p.hist.shift(outcome)
}

// ShiftHistory implements HistoryShifter.
func (p *McFarling) ShiftHistory(outcome bool) { p.hist.shift(outcome) }

// Reset implements Predictor.
func (p *McFarling) Reset() {
	p.bimodal.reset()
	p.gshare.reset()
	p.chooser.reset()
	p.hist.reset()
	p.collision = false
}

// EnableCollisionTracking implements Collider.
func (p *McFarling) EnableCollisionTracking() {
	p.bimodal.enableTags()
	p.gshare.enableTags()
	p.chooser.enableTags()
}

// LastCollision implements Collider.
func (p *McFarling) LastCollision() bool { return p.collision }

// LastEntries implements EntryReporter.
func (p *McFarling) LastEntries(_ uint64, dst []Entry) []Entry {
	return append(dst, p.bimodal.entry("bimodal", p.lBimIdx),
		p.gshare.entry("gshare", p.lGshIdx), p.chooser.entry("chooser", p.lChoIdx))
}
