package predictor

// BiMode is the bi-mode predictor of Lee, Chen and Mudge. Branches are
// steered by a bimodal "choice" table into one of two gshare-indexed
// direction banks — one that learns the behaviour of mostly-taken branches,
// one for mostly-not-taken branches — so that branches of opposite bias that
// alias in a direction bank still push its counters the same way.
//
// Update policy, as the paper describes it: only the selected direction bank
// is trained with the outcome; the choice table is always trained with the
// outcome except when the choice disagreed with the outcome and the selected
// direction bank nevertheless predicted correctly.
//
// The storage budget is split as in the original design: the two direction
// banks and the choice table all have the same number of entries, each the
// largest power of two so that the three tables fit the byte budget. The
// gshare history length equals the direction banks' index width ("as many
// bits of global history as required by the gshare table" — the paper did
// not tune per-program history lengths for bi-mode).
type BiMode struct {
	choice    *table
	direction [2]*table // [0] = not-taken bank, [1] = taken bank
	hist      ghr
	collision bool

	// lookup state carried from Predict to Update
	lChoiceIdx uint64
	lDirIdx    uint64
	lChoice    uint64
	lPred      uint64
}

// NewBiMode builds a bi-mode predictor within sizeBytes of counter storage.
func NewBiMode(sizeBytes int) *BiMode {
	// Three equal tables of e entries cost 3*2*e bits; find the largest
	// power-of-two e that fits the byte budget. The loop tests the doubled
	// table (12e bits) so it stops without overshooting.
	e := 1
	for (e*12+7)/8 <= sizeBytes {
		e *= 2
	}
	if e < 2 {
		e = 2
	}
	p := &BiMode{
		choice:    newTable(e),
		direction: [2]*table{newTable(e), newTable(e)},
	}
	p.hist = newGHR(log2(e))
	return p
}

// Name implements Predictor.
func (p *BiMode) Name() string { return "bimode" }

// SizeBits implements Predictor.
func (p *BiMode) SizeBits() int {
	return p.choice.sizeBits() + p.direction[0].sizeBits() + p.direction[1].sizeBits() + p.hist.sizeBits()
}

// choiceEnable is bi-mode's choice-table policy as a 0/1 enable: train
// with outcome o unless the choice was wrong while the selected direction
// bank was right (bad = 0).
func choiceEnable(choice, bad, o uint64) uint64 { return 1 &^ ((choice ^ o) &^ bad) }

// Predict implements Predictor.
func (p *BiMode) Predict(pc uint64) bool {
	p.lChoiceIdx, p.lDirIdx = pcIndex(pc), gshareIndex(pc, p.hist.bits)
	cc, colC := p.choice.read(p.lChoiceIdx, pc)
	p.lChoice = dir(cc)
	dc, colD := p.direction[p.lChoice].read(p.lDirIdx, pc)
	p.lPred = dir(dc)
	p.collision = colC || colD
	return p.lPred == 1
}

// Update implements Predictor.
func (p *BiMode) Update(_ uint64, outcome bool) {
	o := b2u(outcome)
	p.direction[p.lChoice].train(p.lDirIdx, o, 1)
	p.choice.train(p.lChoiceIdx, o, choiceEnable(p.lChoice, p.lPred^o, o))
	p.hist.shift(outcome)
}

// RunBlock implements BatchSim: Predict and Update fused over the hoisted
// choice table; the selected direction bank is reached through its table.
func (p *BiMode) RunBlock(pcs []uint64, taken []bool, out *BlockMetrics) {
	n := len(p.choice.ctr)
	if len(pcs) == 0 || n == 0 {
		return
	}
	cCtr, cTags, cSw := p.choice.hoist(n)
	dirs := p.direction
	h, hm := p.hist.bits, p.hist.mask
	taken = taken[:len(pcs)]
	var a acc
	a.init(out, len(pcs))
	var col uint64
	for i, pc := range pcs {
		o := b2u(taken[i])
		ci, di := int(pcIndex(pc))&(n-1), int(gshareIndex(pc, h))&(n-1)
		cc := cCtr[ci]
		colC := tagReadU(cTags, cSw, ci, pc)
		choice := dir(cc)
		bank := dirs[choice&1] // branch-free bank select
		dc := bank.ctr[di]
		col = colC | tagReadU(bank.tags, bank.switches, di, pc)
		bad := dir(dc) ^ o
		a.add(i, o, bad, col)
		bank.ctr[di] = ctrStep(dc, o, 1)
		cCtr[ci] = ctrStep(cc, o, choiceEnable(choice, bad, o))
		h = shiftIn(h, o, hm)
	}
	a.flush(out)
	p.hist.bits = h
	p.collision = col != 0
}

// ShiftHistory implements HistoryShifter.
func (p *BiMode) ShiftHistory(outcome bool) { p.hist.shift(outcome) }

// Reset implements Predictor.
func (p *BiMode) Reset() {
	p.choice.reset()
	p.direction[0].reset()
	p.direction[1].reset()
	p.hist.reset()
	p.collision = false
}

// EnableCollisionTracking implements Collider.
func (p *BiMode) EnableCollisionTracking() {
	p.choice.enableTags()
	p.direction[0].enableTags()
	p.direction[1].enableTags()
}

// LastCollision implements Collider.
func (p *BiMode) LastCollision() bool { return p.collision }

// LastEntries implements EntryReporter.
func (p *BiMode) LastEntries(_ uint64, dst []Entry) []Entry {
	return append(dst, p.choice.entry("choice", p.lChoiceIdx),
		p.direction[p.lChoice].entry([2]string{"dir_nt", "dir_t"}[p.lChoice], p.lDirIdx))
}
