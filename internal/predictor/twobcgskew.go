package predictor

// TwoBcGskew is the 2bcgskew hybrid of Seznec and Michaud, the most
// aggressive predictor the paper evaluates. Four equal banks of 2-bit
// counters:
//
//	BIM  — bimodal, indexed by branch address
//	G0   — skew-indexed by (address, short history)
//	G1   — skew-indexed by (address, long history)
//	META — gshare-indexed chooser
//
// BIM, G0 and G1 form the "c-gskew" component: its prediction is the
// majority vote of the three. META chooses between the bimodal prediction
// and the majority vote. BIM plays a double role: a component of the final
// predictor and a sub-component of c-gskew, exactly as the paper describes.
//
// Partial-update policy (paper §2):
//
//   - On a bad final prediction, all three c-gskew banks are trained with
//     the outcome.
//   - On a correct final prediction, only the banks that participated in the
//     correct prediction are re-enforced: BIM when META selected bimodal,
//     otherwise the banks that voted with the (correct) majority.
//   - META is trained only when the two components disagree: toward e-gskew
//     if the majority was right, toward bimodal if the bimodal was right.
//
// History lengths per bank follow the original design's spirit — distinct,
// long lengths so colliding pairs in one bank are spread in the others: G0
// uses the index width minus four bits, G1 twice the index width (folded),
// META the index width. (The paper notes it selected the best history
// lengths for the gshare sub-components; this configuration was tuned the
// same way against the workload suite.)
type TwoBcGskew struct {
	bim, g0, g1, meta *table
	hist              ghr
	sk                skew
	m0, mMeta         uint64 // G0 and META history masks; G1 uses the whole register
	collision         bool

	// lookup state
	lIdx  [4]uint64 // bim, g0, g1, meta
	lVote [3]uint64 // bim, g0, g1
	lMaj  uint64
	lUseG uint64 // meta selected e-gskew majority
	lOut  uint64 // final prediction
}

// NewTwoBcGskew builds a 2bcgskew within sizeBytes of counter storage, split
// evenly across the four banks.
func NewTwoBcGskew(sizeBytes int) *TwoBcGskew {
	// Four banks of e entries cost 4×2×e bits = e bytes; pick the largest
	// power-of-two e within the budget.
	e := 1
	for e*2 <= sizeBytes {
		e *= 2
	}
	if e < 4 {
		e = 4
	}
	n := log2(e)
	return &TwoBcGskew{
		bim:   newTable(e),
		g0:    newTable(e),
		g1:    newTable(e),
		meta:  newTable(e),
		sk:    newSkew(n),
		m0:    histMask(max(2, n-4)),
		mMeta: histMask(n),
		hist:  newGHR(2 * n),
	}
}

// bcgskewVote is 2bcgskew's vote: the majority of the three c-gskew
// votes, and the final prediction META (useG) chooses between it and the
// bimodal vote qb.
func bcgskewVote(qb, q0, q1, useG uint64) (maj, pred uint64) {
	maj = maj3(qb, q0, q1)
	return maj, qb ^ useG&(qb^maj)
}

// bcgskewEnables is 2bcgskew's partial-update policy for the c-gskew banks
// as 0/1 enables: BIM always takes part in a prediction (when META chose
// bimodal, its vote was the prediction), G0 and G1 only when META chose the
// majority.
func bcgskewEnables(bad, useG, qb, q0, q1, o uint64) (eB, e0, e1 uint64) {
	return partial(bad, 1, qb, o), partial(bad, useG, q0, o), partial(bad, useG, q1, o)
}

// metaStep trains META only when its two components disagreed (qb and
// maj), toward e-gskew when the majority was right.
func metaStep(cm uint8, qb, maj, o uint64) uint8 { return ctrStep(cm, 1^maj^o, qb^maj) }

// Name implements Predictor.
func (p *TwoBcGskew) Name() string { return "2bcgskew" }

// SizeBits implements Predictor.
func (p *TwoBcGskew) SizeBits() int {
	return p.bim.sizeBits() + p.g0.sizeBits() + p.g1.sizeBits() + p.meta.sizeBits() + p.hist.sizeBits()
}

// Predict implements Predictor.
//
// The index step — BIM by address, G0 by f0 over the history under m0, G1
// by f1 over the whole history, META by gshare over the history under
// mMeta — is spelled out here and in RunBlock: as one function it costs 189
// against the inliner's budget of 80, and the kernel cannot afford the call.
func (p *TwoBcGskew) Predict(pc uint64) bool {
	a, h := pcIndex(pc), p.hist.bits
	v1, v2 := p.sk.inputs(a, h&p.m0)
	w1, w2 := p.sk.inputs(a, h)
	p.lIdx = [4]uint64{a, p.sk.f0(v1, v2), p.sk.f1(w1, w2), gshareIndex(pc, h&p.mMeta)}
	cb, colB := p.bim.read(p.lIdx[0], pc)
	c0, col0 := p.g0.read(p.lIdx[1], pc)
	c1, col1 := p.g1.read(p.lIdx[2], pc)
	cm, colM := p.meta.read(p.lIdx[3], pc)
	p.collision = colB || col0 || col1 || colM
	p.lVote = [3]uint64{dir(cb), dir(c0), dir(c1)}
	p.lUseG = dir(cm)
	p.lMaj, p.lOut = bcgskewVote(p.lVote[0], p.lVote[1], p.lVote[2], p.lUseG)
	return p.lOut == 1
}

// Update implements Predictor.
func (p *TwoBcGskew) Update(_ uint64, outcome bool) {
	o, q := b2u(outcome), p.lVote
	eB, e0, e1 := bcgskewEnables(p.lOut^o, p.lUseG, q[0], q[1], q[2], o)
	p.bim.train(p.lIdx[0], o, eB)
	p.g0.train(p.lIdx[1], o, e0)
	p.g1.train(p.lIdx[2], o, e1)
	i := p.lIdx[3] & p.meta.mask
	p.meta.ctr[i] = metaStep(p.meta.ctr[i], q[0], p.lMaj, o)
	p.hist.shift(outcome)
}

// RunBlock implements BatchSim: Predict and Update fused over the four
// hoisted banks.
func (p *TwoBcGskew) RunBlock(pcs []uint64, taken []bool, out *BlockMetrics) {
	n := len(p.bim.ctr)
	if len(pcs) == 0 || n == 0 {
		return
	}
	bc, bTags, bSw := p.bim.hoist(n)
	g0c, g0Tags, g0Sw := p.g0.hoist(n)
	g1c, g1Tags, g1Sw := p.g1.hoist(n)
	mc, mTags, mSw := p.meta.hoist(n)
	sk, m0, mm := p.sk, p.m0, p.mMeta
	h, hm := p.hist.bits, p.hist.mask
	taken = taken[:len(pcs)]
	var a acc
	a.init(out, len(pcs))
	var col uint64
	for i, pc := range pcs {
		o := b2u(taken[i])
		x := pcIndex(pc)
		v1, v2 := sk.inputs(x, h&m0)
		w1, w2 := sk.inputs(x, h)
		iB, i0 := int(x)&(n-1), int(sk.f0(v1, v2))&(n-1)
		i1, iM := int(sk.f1(w1, w2))&(n-1), int(gshareIndex(pc, h&mm))&(n-1)
		// Counter loads first, tag read-modify-writes after: four banks mean
		// eight random lines per event, and issuing the independent loads
		// back-to-back is what lets the memory system overlap them.
		cb, c0, c1, cm := bc[iB], g0c[i0], g1c[i1], mc[iM]
		col = tagReadU(bTags, bSw, iB, pc) | tagReadU(g0Tags, g0Sw, i0, pc) |
			tagReadU(g1Tags, g1Sw, i1, pc) | tagReadU(mTags, mSw, iM, pc)
		qb, q0, q1, useG := dir(cb), dir(c0), dir(c1), dir(cm)
		maj, pred := bcgskewVote(qb, q0, q1, useG)
		bad := pred ^ o
		a.add(i, o, bad, col)
		eB, e0, e1 := bcgskewEnables(bad, useG, qb, q0, q1, o)
		bc[iB] = ctrStep(cb, o, eB)
		g0c[i0] = ctrStep(c0, o, e0)
		g1c[i1] = ctrStep(c1, o, e1)
		mc[iM] = metaStep(cm, qb, maj, o)
		h = shiftIn(h, o, hm)
	}
	a.flush(out)
	p.hist.bits = h
	p.collision = col != 0
}

// ShiftHistory implements HistoryShifter.
func (p *TwoBcGskew) ShiftHistory(outcome bool) { p.hist.shift(outcome) }

// Reset implements Predictor.
func (p *TwoBcGskew) Reset() {
	p.bim.reset()
	p.g0.reset()
	p.g1.reset()
	p.meta.reset()
	p.hist.reset()
	p.collision = false
}

// EnableCollisionTracking implements Collider.
func (p *TwoBcGskew) EnableCollisionTracking() {
	p.bim.enableTags()
	p.g0.enableTags()
	p.g1.enableTags()
	p.meta.enableTags()
}

// LastCollision implements Collider.
func (p *TwoBcGskew) LastCollision() bool { return p.collision }

// LastEntries implements EntryReporter.
func (p *TwoBcGskew) LastEntries(_ uint64, dst []Entry) []Entry {
	return append(dst, p.bim.entry("bim", p.lIdx[0]), p.g0.entry("g0", p.lIdx[1]),
		p.g1.entry("g1", p.lIdx[2]), p.meta.entry("meta", p.lIdx[3]))
}
