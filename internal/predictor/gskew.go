package predictor

// GSkew is the enhanced e-gskew predictor (Michaud, Seznec, Uhlig): three
// equally sized banks of 2-bit counters, each indexed by a different skewing
// function of (address, history), with a majority vote. A pair of branches
// colliding in one bank almost never collides in the other two, so the vote
// out-shouts the corrupted bank.
//
// Bank 0 is indexed by address alone (its bimodal role in the enhanced
// design); banks 1 and 2 use skewed (address, history) indices. The enhanced
// partial-update policy applies: on a correct prediction only the agreeing
// banks are re-enforced, on a misprediction all banks are trained.
type GSkew struct {
	banks     [3]*table
	hist      ghr
	sk        skew
	collision bool
	lIdx      [3]uint64
	lVote     [3]uint64
	lOut      uint64
}

// NewGSkew builds an e-gskew predictor within sizeBytes of counter storage,
// split evenly across the three banks.
func NewGSkew(sizeBytes int) *GSkew {
	e := 1
	for (e*12+7)/8 <= sizeBytes { // doubled-table cost: 3 banks × 2 bits × 2e
		e *= 2
	}
	if e < 4 {
		e = 4
	}
	n := log2(e)
	p := &GSkew{sk: newSkew(n), hist: newGHR(n)}
	for i := range p.banks {
		p.banks[i] = newTable(e)
	}
	return p
}

// Name implements Predictor.
func (p *GSkew) Name() string { return "gskew" }

// SizeBits implements Predictor.
func (p *GSkew) SizeBits() int {
	return 3*p.banks[0].sizeBits() + p.hist.sizeBits()
}

// Predict implements Predictor.
//
// The index step — bank 0 by address, banks 1 and 2 by f1 and f2 of
// (address, history) — is spelled out here and in RunBlock rather than in
// one function: that function would cost 141 against the inliner's budget
// of 80, and calling it from the kernel measured 5–9% slower per branch.
func (p *GSkew) Predict(pc uint64) bool {
	a := pcIndex(pc)
	v1, v2 := p.sk.inputs(a, p.hist.bits)
	p.lIdx = [3]uint64{a, p.sk.f1(v1, v2), p.sk.f2(v1, v2)}
	p.collision = false
	for i, b := range p.banks {
		c, col := b.read(p.lIdx[i], pc)
		p.collision = p.collision || col
		p.lVote[i] = dir(c)
	}
	p.lOut = maj3(p.lVote[0], p.lVote[1], p.lVote[2])
	return p.lOut == 1
}

// Update implements Predictor.
func (p *GSkew) Update(_ uint64, outcome bool) {
	o := b2u(outcome)
	for i, b := range p.banks {
		b.train(p.lIdx[i], o, partial(p.lOut^o, 1, p.lVote[i], o))
	}
	p.hist.shift(outcome)
}

// RunBlock implements BatchSim: Predict and Update fused over the three
// hoisted banks.
func (p *GSkew) RunBlock(pcs []uint64, taken []bool, out *BlockMetrics) {
	n := len(p.banks[0].ctr)
	if len(pcs) == 0 || n == 0 {
		return
	}
	ctr0, tags0, sw0 := p.banks[0].hoist(n)
	ctr1, tags1, sw1 := p.banks[1].hoist(n)
	ctr2, tags2, sw2 := p.banks[2].hoist(n)
	sk, h, hm := p.sk, p.hist.bits, p.hist.mask
	taken = taken[:len(pcs)]
	var a acc
	a.init(out, len(pcs))
	var col uint64
	for i, pc := range pcs {
		o := b2u(taken[i])
		x := pcIndex(pc)
		v1, v2 := sk.inputs(x, h)
		i0, i1, i2 := int(x)&(n-1), int(sk.f1(v1, v2))&(n-1), int(sk.f2(v1, v2))&(n-1)
		// All counter loads issue before any tag store, so the independent
		// bank accesses overlap instead of serializing behind the store
		// buffer — these random loads are the kernel's critical path.
		c0, c1, c2 := ctr0[i0], ctr1[i1], ctr2[i2]
		col = tagReadU(tags0, sw0, i0, pc) | tagReadU(tags1, sw1, i1, pc) | tagReadU(tags2, sw2, i2, pc)
		q0, q1, q2 := dir(c0), dir(c1), dir(c2)
		bad := maj3(q0, q1, q2) ^ o
		a.add(i, o, bad, col)
		ctr0[i0] = ctrStep(c0, o, partial(bad, 1, q0, o))
		ctr1[i1] = ctrStep(c1, o, partial(bad, 1, q1, o))
		ctr2[i2] = ctrStep(c2, o, partial(bad, 1, q2, o))
		h = shiftIn(h, o, hm)
	}
	a.flush(out)
	p.hist.bits = h
	p.collision = col != 0
}

// ShiftHistory implements HistoryShifter.
func (p *GSkew) ShiftHistory(outcome bool) { p.hist.shift(outcome) }

// Reset implements Predictor.
func (p *GSkew) Reset() {
	for _, b := range p.banks {
		b.reset()
	}
	p.hist.reset()
	p.collision = false
}

// EnableCollisionTracking implements Collider.
func (p *GSkew) EnableCollisionTracking() {
	for _, b := range p.banks {
		b.enableTags()
	}
}

// LastCollision implements Collider.
func (p *GSkew) LastCollision() bool { return p.collision }

// LastEntries implements EntryReporter.
func (p *GSkew) LastEntries(_ uint64, dst []Entry) []Entry {
	for i, b := range p.banks {
		dst = append(dst, b.entry([3]string{"bank0", "bank1", "bank2"}[i], p.lIdx[i]))
	}
	return dst
}
