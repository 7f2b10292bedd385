package predictor

// YAGS ("yet another global scheme", Eden & Mudge) stores only the
// *exceptions* to a branch's bias in tagged direction caches. A bimodal
// choice table gives the default direction; a taken-biased branch consults
// the NT-cache for recorded not-taken exceptions (and vice versa), each cache
// entry pairing a 2-bit counter with a small partial tag. Tags mean an
// aliased entry simply misses instead of mistraining, attacking the same
// destructive-aliasing problem the paper's static filter targets.
//
// Budget split: a choice table of e 2-bit entries plus two caches of e/2
// entries, each entry 2+yagsTagBits bits.
type YAGS struct {
	choice    *table
	cacheCtr  [2][]uint8 // [0]=NT-cache, [1]=T-cache
	cacheTag  [2][]uint8
	cacheMask uint64
	hist      ghr
	collision bool

	lChoIdx, lCacheIdx uint64
	lChoice, lHit      bool
	lBank              int
	lPred              bool
}

// yagsTagBits is the partial-tag width per cache entry.
const yagsTagBits = 8

// NewYAGS builds a YAGS predictor within sizeBytes of storage.
func NewYAGS(sizeBytes int) *YAGS {
	// Total bits for choice e + caches e/2 each: 2e + 2*(e/2)*(2+tag) = 12e
	// with an 8-bit tag.
	// Cost at size e is 2e (choice) + (2+tag)·e (two caches of e/2) = 12e
	// bits with 8-bit tags; the loop tests the doubled configuration.
	e := 2
	for 24*e <= sizeBytes*8 {
		e *= 2
	}
	ce := e / 2
	if ce < 2 {
		ce = 2
	}
	p := &YAGS{choice: newTable(e), cacheMask: uint64(ce - 1)}
	for b := 0; b < 2; b++ {
		p.cacheCtr[b] = make([]uint8, ce)
		p.cacheTag[b] = make([]uint8, ce)
		for i := range p.cacheCtr[b] {
			p.cacheCtr[b][i] = ctrInit
		}
	}
	p.hist = newGHR(log2(ce))
	return p
}

// Name implements Predictor.
func (p *YAGS) Name() string { return "yags" }

// SizeBits implements Predictor.
func (p *YAGS) SizeBits() int {
	ce := len(p.cacheCtr[0])
	return p.choice.sizeBits() + 2*ce*(2+yagsTagBits) + p.hist.sizeBits()
}

func (p *YAGS) tag(pc uint64) uint8 { return uint8(pcIndex(pc)) }

// Predict implements Predictor.
func (p *YAGS) Predict(pc uint64) bool {
	p.lChoIdx = pcIndex(pc)
	cc, col := p.choice.read(p.lChoIdx, pc)
	p.collision = col
	p.lChoice = taken(cc)

	// Consult the cache of exceptions to the chosen direction.
	p.lBank = 0 // NT-cache holds not-taken exceptions for taken-biased branches
	if !p.lChoice {
		p.lBank = 1
	}
	p.lCacheIdx = (pcIndex(pc) ^ p.hist.value(p.hist.len)) & p.cacheMask
	p.lHit = p.cacheTag[p.lBank][p.lCacheIdx] == p.tag(pc)
	if p.lHit {
		p.lPred = taken(p.cacheCtr[p.lBank][p.lCacheIdx])
	} else {
		p.lPred = p.lChoice
	}
	return p.lPred
}

// Update implements Predictor.
func (p *YAGS) Update(pc uint64, outcome bool) {
	// Train or allocate the exception cache when the branch deviated from
	// its choice direction, or when the entry already tracks this branch.
	if p.lHit {
		c := p.cacheCtr[p.lBank][p.lCacheIdx]
		if outcome {
			if c < ctrMax {
				p.cacheCtr[p.lBank][p.lCacheIdx] = c + 1
			}
		} else if c > 0 {
			p.cacheCtr[p.lBank][p.lCacheIdx] = c - 1
		}
	} else if outcome != p.lChoice {
		p.cacheTag[p.lBank][p.lCacheIdx] = p.tag(pc)
		if outcome {
			p.cacheCtr[p.lBank][p.lCacheIdx] = ctrThreshold
		} else {
			p.cacheCtr[p.lBank][p.lCacheIdx] = ctrThreshold - 1
		}
	}

	// Choice table trains as a bimodal, except when it was wrong but the
	// cache rescued the prediction.
	if !(p.lChoice != outcome && p.lPred == outcome) {
		p.choice.update(p.lChoIdx, outcome)
	}
	p.hist.shift(outcome)
}

// ShiftHistory implements HistoryShifter.
func (p *YAGS) ShiftHistory(outcome bool) { p.hist.shift(outcome) }

// Reset implements Predictor.
func (p *YAGS) Reset() {
	p.choice.reset()
	for b := 0; b < 2; b++ {
		for i := range p.cacheCtr[b] {
			p.cacheCtr[b][i] = ctrInit
			p.cacheTag[b][i] = 0
		}
	}
	p.hist.reset()
	p.collision = false
}

// EnableCollisionTracking implements Collider. Only the untagged choice
// table can alias silently; cache conflicts surface as tag misses.
func (p *YAGS) EnableCollisionTracking() { p.choice.enableTags() }

// LastCollision implements Collider.
func (p *YAGS) LastCollision() bool { return p.collision }

// LastEntries implements EntryReporter: the choice table is the one tracked.
func (p *YAGS) LastEntries(_ uint64, dst []Entry) []Entry {
	return append(dst, p.choice.entry("choice", p.lChoIdx))
}
