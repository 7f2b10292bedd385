package predictor

// Agree implements the agree mechanism of Sprangle, Chappell, Alsup and Patt
// (related work §3 of the paper). Each branch carries a "bias bit" giving the
// direction it is expected to usually take; the gshare-indexed counter table
// then learns whether branches *agree* with their bias bit rather than
// whether they are taken. Two branches that alias in the table but both
// follow their own bias push the shared counter the same way, converting
// destructive aliasing into constructive aliasing.
//
// The bias bit lives with the instruction (like the paper's static hint
// bits), not in the predictor, so it is not charged to the storage budget.
// We set it the way the original paper's hardware variant did: to the first
// observed outcome of the branch. SetBias allows a profile-derived bias to be
// installed instead, which the ablation experiments use to compare agree
// against static filtering.
type Agree struct {
	t         *table
	hist      ghr
	bias      map[uint64]bool
	collision bool
	lIdx      uint64
	lBias     bool
	lKnown    bool
}

// agreeVote is the agree vote on counter c for a branch with bias bit b: a
// counter that agrees predicts the bias, one that disagrees its opposite. On
// the branch's first encounter (!known) it is the counter's raw direction.
func agreeVote(c uint8, b, known bool) uint64 { return 1 ^ dir(c) ^ b2u(b || !known) }

// learnBias installs outcome as pc's bias bit on its first encounter and
// returns the direction the counter trains toward: whether the outcome
// agreed with the bias.
func learnBias(bias map[uint64]bool, pc uint64, b, known, outcome bool) uint64 {
	if !known {
		bias[pc] = outcome
		b = outcome
	}
	return b2u(outcome == b)
}

// NewAgree builds an agree predictor with gshare indexing over sizeBytes of
// counter storage.
func NewAgree(sizeBytes int) *Agree {
	t := newTable(entriesForBytes(sizeBytes))
	return &Agree{t: t, hist: newGHR(log2(t.entries())), bias: make(map[uint64]bool)}
}

// Name implements Predictor.
func (p *Agree) Name() string { return "agree" }

// SizeBits implements Predictor.
func (p *Agree) SizeBits() int { return p.t.sizeBits() + p.hist.sizeBits() }

// SetBias installs a bias bit for the branch at pc, overriding the
// first-outcome default.
func (p *Agree) SetBias(pc uint64, taken bool) { p.bias[pc] = taken }

// Predict implements Predictor.
func (p *Agree) Predict(pc uint64) bool {
	p.lIdx = gshareIndex(pc, p.hist.bits)
	c, col := p.t.read(p.lIdx, pc)
	p.collision = col
	p.lBias, p.lKnown = p.bias[pc]
	return agreeVote(c, p.lBias, p.lKnown) == 1
}

// Update implements Predictor.
func (p *Agree) Update(pc uint64, outcome bool) {
	p.t.train(p.lIdx, learnBias(p.bias, pc, p.lBias, p.lKnown, outcome), 1)
	p.hist.shift(outcome)
}

// RunBlock implements BatchSim: Predict and Update fused over the hoisted
// table and history, bias map included.
func (p *Agree) RunBlock(pcs []uint64, taken []bool, out *BlockMetrics) {
	n := len(p.t.ctr)
	if len(pcs) == 0 || n == 0 {
		return
	}
	ctr, tags, sw := p.t.hoist(n)
	bias := p.bias
	h, hm := p.hist.bits, p.hist.mask
	taken = taken[:len(pcs)]
	var a acc
	a.init(out, len(pcs))
	var col uint64
	for i, pc := range pcs {
		outcome := taken[i]
		o := b2u(outcome)
		x := int(gshareIndex(pc, h)) & (n - 1)
		c := ctr[x]
		col = tagReadU(tags, sw, x, pc)
		b, known := bias[pc]
		a.add(i, o, agreeVote(c, b, known)^o, col)
		ctr[x] = ctrStep(c, learnBias(bias, pc, b, known, outcome), 1)
		h = shiftIn(h, o, hm)
	}
	a.flush(out)
	p.hist.bits = h
	p.collision = col != 0
}

// ShiftHistory implements HistoryShifter.
func (p *Agree) ShiftHistory(outcome bool) { p.hist.shift(outcome) }

// Reset implements Predictor. It clears counters, history and all bias bits
// (including ones installed with SetBias); callers comparing profile-derived
// bias must re-install after Reset.
func (p *Agree) Reset() {
	p.t.reset()
	p.hist.reset()
	p.collision = false
	p.bias = make(map[uint64]bool)
}

// EnableCollisionTracking implements Collider.
func (p *Agree) EnableCollisionTracking() { p.t.enableTags() }

// LastCollision implements Collider.
func (p *Agree) LastCollision() bool { return p.collision }

// LastEntries implements EntryReporter.
func (p *Agree) LastEntries(_ uint64, dst []Entry) []Entry {
	return append(dst, p.t.entry("pht", p.lIdx))
}
