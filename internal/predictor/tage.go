package predictor

// TAGE (TAgged GEometric history length) is Seznec's successor to 2bcgskew:
// a bimodal base predictor plus several partially tagged components indexed
// with geometrically increasing history lengths. The longest-history
// component that *tag-matches* provides the prediction; allocation on
// mispredictions steers each branch to the shortest history that predicts
// it.
//
// It is not part of the paper's evaluated set (it postdates it by six
// years), but it is the natural end point of the de-aliasing arms race the
// paper participates in: tags remove destructive aliasing directly. The
// abl-modern experiment asks the paper's question against it — how much
// headroom is left for profile-guided static filtering once the dynamic
// predictor de-aliases itself.
//
// This is a compact, faithful TAGE: per-entry 3-bit counters, 2-bit useful
// bits, partial tags, a use-alternate-on-newly-allocated policy, and
// periodic useful-bit aging. No loop predictor or statistical corrector.
type TAGE struct {
	base *table // bimodal base

	comps [tageComps]tageComp
	hist  ghr

	// lookup state: lIdx and lTag hold each component's index and tag,
	// computed by Predict and reused by Update (the Predict-then-Update
	// contract guarantees the same pc and history)
	lBaseIdx  uint64
	lProvider int // component index, -1 = base
	lAltPred  bool
	lProvPred bool
	lPred     bool
	lIdx      [tageComps]uint64
	lTag      [tageComps]uint16
	lNewAlloc bool
	lConf     Confidence
	collision bool
	tick      int

	// statsOn gates the per-bank stream counters (tag hits, provider
	// attribution, allocation churn) behind EnableTableStats so untelemetried
	// runs pay one boolean test. sBaseProv counts predictions the bimodal
	// base provided.
	statsOn   bool
	sBaseProv uint64
}

type tageComp struct {
	ctr     []int8 // 3-bit signed counters, -4..3; >= 0 predicts taken
	tag     []uint16
	useful  []uint8 // 2-bit useful counters
	mask    uint64
	histLen int
	idxBits int // log2(len(ctr))
	tagBits int
	tagMask uint64

	// folded history registers: the component's histLen bits of global
	// history xor-folded to the index width, the tag width and one bit
	// less, kept current by every history shift
	fIdx, fTag, fTag1 foldedHist

	dbgTags []uint64 // collision instrumentation (last PC per entry)

	// stream counters, accumulated only while statsOn (EnableTableStats):
	// tag hits/misses at lookup, provider attribution (sProv predictions
	// provided, sAlt of those overridden by use-alt-on-newly-allocated),
	// and allocation churn (sAlloc entries claimed, sAllocFail refusals
	// because the candidate's useful counter pinned it).
	sHit, sMiss        uint64
	sProv, sAlt        uint64
	sAlloc, sAllocFail uint64
}

// tageComps is the number of tagged components.
const tageComps = 5

// tageHistLens are the geometric history lengths of the tagged components.
var tageHistLens = [tageComps]int{4, 8, 16, 32, 64}

// tageBankNames name the tagged components after their history lengths.
var tageBankNames = [tageComps]string{"t4", "t8", "t16", "t32", "t64"}

// foldedHist is a history of histLen bits xor-folded into width bits — bit j
// of the history lands on bit j mod width — maintained incrementally (Seznec
// and Michaud's circular shift register): a shift rotates the folded value
// left by one, inserts the new outcome at bit 0 and cancels the bit that
// leaves the history window, at the position histLen mod width where the
// rotation moved it.
type foldedHist struct {
	v      uint64
	mask   uint64 // width low bits
	width  uint
	outPos uint // histLen mod width
}

// newFoldedHist returns the empty fold of histLen bits into width >= 1 bits.
func newFoldedHist(histLen, width int) foldedHist {
	return foldedHist{mask: uint64(1)<<width - 1, width: uint(width), outPos: uint(histLen % width)}
}

// shift absorbs one history shift: in is the new outcome bit and out the
// bit leaving the histLen-bit window (both 0 or 1).
func (f *foldedHist) shift(in, out uint64) {
	v := f.v<<1 | in
	v ^= out << f.outPos
	v ^= v >> f.width
	f.v = v & f.mask
}

// NewTAGE builds a TAGE within sizeBytes. The base bimodal gets a quarter of
// the budget; the rest splits evenly across the tagged components (each
// entry costs 3+2+tagBits bits).
func NewTAGE(sizeBytes int) *TAGE {
	baseBudget := sizeBytes / 4
	if baseBudget < 1 {
		baseBudget = 1
	}
	t := &TAGE{base: newTable(entriesForBytes(baseBudget))}

	perComp := (sizeBytes - baseBudget) / tageComps
	for i, hl := range tageHistLens {
		tagBits := 7 + i // longer histories earn longer tags
		entryBits := 3 + 2 + tagBits
		e := 2
		for e*2*entryBits <= perComp*8 {
			e *= 2
		}
		idxBits := log2(e)
		t.comps[i] = tageComp{
			ctr:     make([]int8, e),
			tag:     make([]uint16, e),
			useful:  make([]uint8, e),
			mask:    uint64(e - 1),
			histLen: hl,
			idxBits: idxBits,
			tagBits: tagBits,
			tagMask: uint64(1)<<tagBits - 1,
			fIdx:    newFoldedHist(hl, idxBits),
			fTag:    newFoldedHist(hl, tagBits),
			fTag1:   newFoldedHist(hl, tagBits-1),
		}
	}
	t.hist = newGHR(64)
	return t
}

// Name implements Predictor.
func (t *TAGE) Name() string { return "tage" }

// SizeBits implements Predictor.
func (t *TAGE) SizeBits() int {
	bits := t.base.sizeBits() + t.hist.sizeBits()
	for _, c := range t.comps {
		bits += len(c.ctr) * (3 + 2 + c.tagBits)
	}
	return bits
}

// ShiftHistory implements HistoryShifter: it inserts outcome into the
// global history and every component's folded registers.
func (t *TAGE) ShiftHistory(outcome bool) {
	var in uint64
	if outcome {
		in = 1
	}
	h := t.hist.bits
	for i := range t.comps {
		c := &t.comps[i]
		out := h >> (c.histLen - 1) & 1
		c.fIdx.shift(in, out)
		c.fTag.shift(in, out)
		c.fTag1.shift(in, out)
	}
	t.hist.shift(outcome)
}

// Predict implements Predictor.
func (t *TAGE) Predict(pc uint64) bool {
	t.lBaseIdx = pcIndex(pc)
	baseCtr, col := t.base.read(t.lBaseIdx, pc)
	t.collision = col
	basePred := taken(baseCtr)

	t.lProvider = -1
	alt := basePred
	pred := basePred
	altSet := false
	a := t.lBaseIdx
	tagPC := a ^ a>>5
	for i := range t.comps {
		c := &t.comps[i]
		idx := (a ^ a>>c.idxBits ^ c.fIdx.v) & c.mask
		tag := uint16((tagPC ^ c.fTag.v ^ c.fTag1.v<<1) & c.tagMask)
		match := c.tag[idx] == tag
		t.lIdx[i], t.lTag[i] = idx, tag
		if c.dbgTags != nil {
			old := c.dbgTags[idx]
			if old != 0 && old != pc+1 {
				t.collision = true
			}
			c.dbgTags[idx] = pc + 1
		}
		if t.statsOn {
			if match {
				c.sHit++
			} else {
				c.sMiss++
			}
		}
		if match {
			if t.lProvider >= 0 {
				alt = t.comps[t.lProvider].ctr[t.lIdx[t.lProvider]] >= 0
				altSet = true
			}
			t.lProvider = i
		}
	}
	if t.lProvider >= 0 {
		prov := &t.comps[t.lProvider]
		ctr := prov.ctr[t.lIdx[t.lProvider]]
		t.lProvPred = ctr >= 0
		if !altSet {
			alt = basePred
		}
		// use-alt-on-newly-allocated: weak counter + not useful
		weak := ctr == 0 || ctr == -1
		t.lNewAlloc = weak && prov.useful[t.lIdx[t.lProvider]] == 0
		if t.lNewAlloc {
			pred = alt
		} else {
			pred = t.lProvPred
		}
	} else {
		t.lProvPred = basePred
		t.lNewAlloc = false
	}
	t.lAltPred = alt
	t.lPred = pred
	if t.statsOn {
		if t.lProvider >= 0 {
			prov := &t.comps[t.lProvider]
			prov.sProv++
			if t.lNewAlloc {
				prov.sAlt++
			}
		} else {
			t.sBaseProv++
		}
	}
	t.lConf = t.confidence(baseCtr)
	return pred
}

// confidence grades the prediction Predict just produced, from the provider
// state as read at lookup time (Update mutates the provider counter, so this
// must be captured here, not computed lazily).
func (t *TAGE) confidence(baseCtr uint8) Confidence {
	if t.lProvider < 0 {
		// Base bimodal provided: only the 2-bit counter speaks. A saturated
		// counter earns the strength a mid-range tagged provider would; the
		// weak states are low-confidence by construction.
		if baseCtr == 0 || baseCtr == ctrMax {
			return Confidence{Score: 4.0 / 9.0}
		}
		return Confidence{Score: 1.0 / 9.0, Low: true}
	}
	if t.lNewAlloc {
		// Newly allocated entry: the alternate prediction was used and the
		// provider has earned no trust yet.
		return Confidence{Score: 0, Low: true}
	}
	prov := &t.comps[t.lProvider]
	ctr := prov.ctr[t.lIdx[t.lProvider]]
	s := int(ctr)
	if s < 0 {
		s = -s - 1 // 3-bit counter strength: 0 (weak) … 3 (saturated)
	}
	u := int(prov.useful[t.lIdx[t.lProvider]])
	return Confidence{Score: float64(2*s+u) / 9.0, Low: s == 0}
}

// LastConfidence implements ConfidenceEstimator.
func (t *TAGE) LastConfidence() Confidence { return t.lConf }

func ctr3Update(v int8, outcome bool) int8 {
	if outcome {
		if v < 3 {
			return v + 1
		}
		return v
	}
	if v > -4 {
		return v - 1
	}
	return v
}

// Update implements Predictor.
func (t *TAGE) Update(_ uint64, outcome bool) {
	correct := t.lPred == outcome

	if t.lProvider >= 0 {
		prov := &t.comps[t.lProvider]
		idx := t.lIdx[t.lProvider]
		// useful bit: provider beat the alternate
		if t.lProvPred != t.lAltPred {
			if t.lProvPred == outcome {
				if prov.useful[idx] < 3 {
					prov.useful[idx]++
				}
			} else if prov.useful[idx] > 0 {
				prov.useful[idx]--
			}
		}
		prov.ctr[idx] = ctr3Update(prov.ctr[idx], outcome)
		// train the base too when the provider entry is freshly allocated
		if t.lNewAlloc {
			t.base.update(t.lBaseIdx, outcome)
		}
	} else {
		t.base.update(t.lBaseIdx, outcome)
	}

	// allocate a longer-history entry on a misprediction
	if !correct && t.lProvider < len(t.comps)-1 {
		start := t.lProvider + 1
		allocated := false
		for i := start; i < len(t.comps); i++ {
			c := &t.comps[i]
			idx := t.lIdx[i]
			if c.useful[idx] == 0 {
				c.tag[idx] = t.lTag[i]
				if outcome {
					c.ctr[idx] = 0
				} else {
					c.ctr[idx] = -1
				}
				if t.statsOn {
					c.sAlloc++
				}
				allocated = true
				break
			}
			if t.statsOn {
				c.sAllocFail++
			}
		}
		if !allocated {
			// decay useful bits on the candidates so future allocations
			// succeed (the classic anti-ping-pong mechanism)
			for i := start; i < len(t.comps); i++ {
				c := &t.comps[i]
				idx := t.lIdx[i]
				if c.useful[idx] > 0 {
					c.useful[idx]--
				}
			}
		}
		// periodic global aging
		t.tick++
		if t.tick >= 1<<18 {
			t.tick = 0
			for i := range t.comps {
				for j := range t.comps[i].useful {
					t.comps[i].useful[j] >>= 1
				}
			}
		}
	}

	t.ShiftHistory(outcome)
}

// Reset implements Predictor.
func (t *TAGE) Reset() {
	t.base.reset()
	for i := range t.comps {
		c := &t.comps[i]
		for j := range c.ctr {
			c.ctr[j] = 0
			c.tag[j] = 0
			c.useful[j] = 0
		}
		if c.dbgTags != nil {
			c.dbgTags = make([]uint64, len(c.ctr))
		}
		c.sHit, c.sMiss = 0, 0
		c.sProv, c.sAlt = 0, 0
		c.sAlloc, c.sAllocFail = 0, 0
		c.fIdx.v, c.fTag.v, c.fTag1.v = 0, 0, 0
	}
	t.hist.reset()
	t.tick = 0
	t.collision = false
	t.sBaseProv = 0
	t.lConf = Confidence{}
}

// EnableCollisionTracking implements Collider.
func (t *TAGE) EnableCollisionTracking() {
	t.base.enableTags()
	for i := range t.comps {
		if t.comps[i].dbgTags == nil {
			t.comps[i].dbgTags = make([]uint64, len(t.comps[i].ctr))
		}
	}
}

// LastCollision implements Collider.
func (t *TAGE) LastCollision() bool { return t.collision }

// LastEntries implements EntryReporter: the base, then every tagged bank,
// each probed once per Predict.
func (t *TAGE) LastEntries(_ uint64, dst []Entry) []Entry {
	dst = append(dst, t.base.entry("base", t.lBaseIdx))
	for i := range t.comps {
		dst = append(dst, Entry{tageBankNames[i], t.lIdx[i]})
	}
	return dst
}
