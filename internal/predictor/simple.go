package predictor

import (
	"fmt"

	"branchsim/internal/obs"
)

// pht is the single-table family the paper's three simplest predictors
// belong to: one table of 2-bit counters indexed by
//
//	(pcIndex(pc) & pcMask) ^ history
//
// Bimodal keeps address bits and no history, GHist history and no address
// bits, GShare both. Each embeds pht for the scalar protocol and has its own
// block kernel: the same loop with phtIndex's mask and history fixed, so the
// compiler drops the part of the index the member does not use. (One loop
// shared by all three, reading the mask and history from pht, measured 15%
// slower per branch for bimodal and ghist.)
type pht struct {
	t         *table
	hist      ghr
	pcMask    uint64 // all-ones when the index takes address bits, else 0
	collision bool
}

func newPHT(sizeBytes, histLen int, useAddr bool) pht {
	t := newTable(entriesForBytes(sizeBytes))
	return pht{t: t, hist: newGHR(histLen), pcMask: -b2u(useAddr)}
}

// phtIndex is the family's index hash: address bits under mask pm xor
// history h.
func phtIndex(pc, pm, h uint64) uint64 { return pcIndex(pc)&pm ^ h }

// SizeBits implements Predictor.
func (p *pht) SizeBits() int { return p.t.sizeBits() + p.hist.sizeBits() }

// Predict implements Predictor.
func (p *pht) Predict(pc uint64) bool {
	c, col := p.t.read(phtIndex(pc, p.pcMask, p.hist.bits), pc)
	p.collision = col
	return taken(c)
}

// Update implements Predictor.
func (p *pht) Update(pc uint64, outcome bool) {
	p.t.update(phtIndex(pc, p.pcMask, p.hist.bits), outcome)
	p.hist.shift(outcome)
}

// Reset implements Predictor.
func (p *pht) Reset() { p.t.reset(); p.hist.reset(); p.collision = false }

// EnableCollisionTracking implements Collider.
func (p *pht) EnableCollisionTracking() { p.t.enableTags() }

// LastCollision implements Collider.
func (p *pht) LastCollision() bool { return p.collision }

// LastEntries implements EntryReporter: until Update the history has not
// shifted, so the index recomputes.
func (p *pht) LastEntries(pc uint64, dst []Entry) []Entry {
	return append(dst, p.t.entry("pht", phtIndex(pc, p.pcMask, p.hist.bits)))
}

// EnableTableStats implements Introspector.
func (p *pht) EnableTableStats() { p.t.enableStats() }

// Introspect implements Introspector.
func (p *pht) Introspect() []obs.TableStat { return []obs.TableStat{p.t.stats("pht")} }

// Bimodal is the classic PC-indexed table of 2-bit saturating counters
// (Smith). It exploits the fact that most branches are strongly biased in one
// direction. It keeps no global history, so HistoryShifter is intentionally
// not implemented.
type Bimodal struct{ pht }

// NewBimodal builds a bimodal predictor with the largest power-of-two table
// that fits in sizeBytes of counter storage.
func NewBimodal(sizeBytes int) *Bimodal { return &Bimodal{newPHT(sizeBytes, 0, true)} }

// Name implements Predictor.
func (p *Bimodal) Name() string { return "bimodal" }

// RunBlock implements BatchSim: Predict and Update fused over the hoisted
// table.
func (p *Bimodal) RunBlock(pcs []uint64, taken []bool, out *BlockMetrics) {
	n := len(p.t.ctr)
	if len(pcs) == 0 || n == 0 {
		return
	}
	ctr, tags, sw := p.t.hoist(n)
	taken = taken[:len(pcs)]
	var a acc
	a.init(out, len(pcs))
	var col uint64
	for i, pc := range pcs {
		o := b2u(taken[i])
		x := int(phtIndex(pc, ^uint64(0), 0)) & (n - 1)
		c := ctr[x]
		col = tagReadU(tags, sw, x, pc)
		a.add(i, o, dir(c)^o, col)
		ctr[x] = ctrStep(c, o, 1)
	}
	a.flush(out)
	p.collision = col != 0
}

// GHist is the GAg scheme of Yeh & Patt, called "ghist" in the paper: a
// single table of 2-bit counters indexed purely by the global branch history
// register. It exploits branch correlation and, because the index carries no
// address bits at all, it is the predictor most exposed to aliasing.
type GHist struct{ pht }

// NewGHist builds a ghist predictor; the history length equals the table's
// index width, the natural configuration for GAg.
func NewGHist(sizeBytes int) *GHist {
	return &GHist{newPHT(sizeBytes, log2(entriesForBytes(sizeBytes)), false)}
}

// Name implements Predictor.
func (p *GHist) Name() string { return "ghist" }

// ShiftHistory implements HistoryShifter.
func (p *GHist) ShiftHistory(outcome bool) { p.hist.shift(outcome) }

// RunBlock implements BatchSim: Predict and Update fused over the hoisted
// table and history.
func (p *GHist) RunBlock(pcs []uint64, taken []bool, out *BlockMetrics) {
	n := len(p.t.ctr)
	if len(pcs) == 0 || n == 0 {
		return
	}
	ctr, tags, sw := p.t.hoist(n)
	h, hm := p.hist.bits, p.hist.mask
	taken = taken[:len(pcs)]
	var a acc
	a.init(out, len(pcs))
	var col uint64
	for i, pc := range pcs {
		o := b2u(taken[i])
		x := int(phtIndex(pc, 0, h)) & (n - 1)
		c := ctr[x]
		col = tagReadU(tags, sw, x, pc)
		a.add(i, o, dir(c)^o, col)
		ctr[x] = ctrStep(c, o, 1)
		h = shiftIn(h, o, hm)
	}
	a.flush(out)
	p.hist.bits = h
	p.collision = col != 0
}

// GShare xors branch address bits with the global history to index its
// counter table (McFarling), blending bimodal and ghist behaviour.
type GShare struct {
	pht
	idxBits int
}

// gshareIndex is the gshare hash, also the direction index of agree and
// bi-mode and the META index of 2bcgskew.
func gshareIndex(pc, h uint64) uint64 { return phtIndex(pc, ^uint64(0), h) }

// NewGShare builds a gshare predictor whose history length equals the index
// width (a "full" gshare). Use NewGShareHist to pick a shorter history.
func NewGShare(sizeBytes int) *GShare {
	return NewGShareHist(sizeBytes, log2(entriesForBytes(sizeBytes)))
}

// NewGShareHist builds a gshare with an explicit history length histLen
// (clamped to the index width). The paper notes the best history length
// varies with table size and program; experiments sweep this.
func NewGShareHist(sizeBytes, histLen int) *GShare {
	n := log2(entriesForBytes(sizeBytes))
	return &GShare{pht: newPHT(sizeBytes, min(max(histLen, 0), n), true), idxBits: n}
}

// Name implements Predictor.
func (p *GShare) Name() string {
	if p.hist.len != p.idxBits {
		return fmt.Sprintf("gshare(h=%d)", p.hist.len)
	}
	return "gshare"
}

// ShiftHistory implements HistoryShifter.
func (p *GShare) ShiftHistory(outcome bool) { p.hist.shift(outcome) }

// RunBlock implements BatchSim: Predict and Update fused over the hoisted
// table and history.
func (p *GShare) RunBlock(pcs []uint64, taken []bool, out *BlockMetrics) {
	n := len(p.t.ctr)
	if len(pcs) == 0 || n == 0 {
		return
	}
	ctr, tags, sw := p.t.hoist(n)
	h, hm := p.hist.bits, p.hist.mask
	taken = taken[:len(pcs)]
	var a acc
	a.init(out, len(pcs))
	var col uint64
	for i, pc := range pcs {
		o := b2u(taken[i])
		x := int(gshareIndex(pc, h)) & (n - 1)
		c := ctr[x]
		col = tagReadU(tags, sw, x, pc)
		a.add(i, o, dir(c)^o, col)
		ctr[x] = ctrStep(c, o, 1)
		h = shiftIn(h, o, hm)
	}
	a.flush(out)
	p.hist.bits = h
	p.collision = col != 0
}

// HistoryLen reports the configured global history length.
func (p *GShare) HistoryLen() int { return p.hist.len }
