package predictor

import "math/bits"

// Perceptron is the neural branch predictor of Jiménez and Lin: each branch
// hashes to a weight vector; the prediction is the sign of the dot product
// of the weights with the global history (±1 per bit) plus a bias weight.
// Training only happens on a misprediction or when the output magnitude is
// below a threshold (the classic θ = 1.93·h + 14 rule).
//
// Like TAGE it postdates the paper; the abl-modern experiment uses it to
// test whether profile-guided static filtering still helps predictors whose
// capacity pressure is per-weight rather than per-counter.
type Perceptron struct {
	weights   [][]int16 // [entry][histLen+1], index 0 = bias weight
	mask      uint64
	histLen   int
	theta     int32
	hist      ghr
	collision bool
	dbgTags   []uint64

	lIdx  uint64
	lSum  int32
	lPred bool

	// statsOn gates the margin-histogram accumulation behind
	// EnableTableStats so untelemetried runs pay one boolean test.
	// marginHist log₂-buckets |dot product| over the branch stream.
	statsOn    bool
	marginHist [33]uint64
}

// perceptronWeightBits is the per-weight width (8-bit signed weights, the
// published configuration).
const perceptronWeightBits = 8

// NewPerceptron builds a perceptron predictor within sizeBytes. History
// length is fixed at 31 bits (near the published sweet spot); the number of
// weight vectors scales with the budget.
func NewPerceptron(sizeBytes int) *Perceptron {
	const histLen = 31
	perEntryBits := (histLen + 1) * perceptronWeightBits
	e := 2
	for e*2*perEntryBits <= sizeBytes*8 {
		e *= 2
	}
	p := &Perceptron{
		weights: make([][]int16, e),
		mask:    uint64(e - 1),
		histLen: histLen,
		theta:   int32(193*histLen/100 + 14), // θ = 1.93·h + 14 (Jiménez & Lin)
	}
	for i := range p.weights {
		p.weights[i] = make([]int16, histLen+1)
	}
	p.hist = newGHR(histLen)
	return p
}

// Name implements Predictor.
func (p *Perceptron) Name() string { return "perceptron" }

// SizeBits implements Predictor.
func (p *Perceptron) SizeBits() int {
	return len(p.weights)*(p.histLen+1)*perceptronWeightBits + p.hist.sizeBits()
}

// Predict implements Predictor.
func (p *Perceptron) Predict(pc uint64) bool {
	p.lIdx = (pcIndex(pc) ^ pcIndex(pc)>>9) & p.mask
	if p.dbgTags != nil {
		old := p.dbgTags[p.lIdx]
		p.collision = old != 0 && old != pc+1
		p.dbgTags[p.lIdx] = pc + 1
	}
	w := p.weights[p.lIdx]
	sum := int32(w[0])
	h := p.hist.bits
	for _, wi := range w[1 : p.histLen+1] {
		// neg is 0 for a taken history bit and -1 for a not-taken one;
		// (x ^ neg) - neg is then x or -x, without a branch.
		neg := int32(h&1) - 1
		sum += (int32(wi) ^ neg) - neg
		h >>= 1
	}
	p.lSum = sum
	p.lPred = sum >= 0
	if p.statsOn {
		m := sum
		if m < 0 {
			m = -m
		}
		p.marginHist[bits.Len32(uint32(m))]++
	}
	return p.lPred
}

// LastConfidence implements ConfidenceEstimator. The dot product survives
// Update untouched (training reads it), so this stays stable until the next
// Predict. Low is the classic margin condition |sum| ≤ θ — the same test
// that forces training on a correct prediction.
func (p *Perceptron) LastConfidence() Confidence {
	m := p.lSum
	if m < 0 {
		m = -m
	}
	score := float64(m) / float64(p.theta)
	if score > 1 {
		score = 1
	}
	return Confidence{Score: score, Low: m <= p.theta}
}

// Update implements Predictor.
func (p *Perceptron) Update(_ uint64, outcome bool) {
	mag := p.lSum
	if mag < 0 {
		mag = -mag
	}
	if p.lPred != outcome || mag <= p.theta {
		var o uint64
		if outcome {
			o = 1
		}
		w := p.weights[p.lIdx]
		// Each weight steps +1 toward agreement with the outcome (the bias
		// weight: toward the outcome) and -1 otherwise, saturating at the
		// 8-bit range.
		w[0] = min(max(w[0]+int16(2*o)-1, -128), 127)
		h := p.hist.bits
		ws := w[1 : p.histLen+1]
		for i, wi := range ws {
			ws[i] = min(max(wi+1-int16(2*((h^o)&1)), -128), 127)
			h >>= 1
		}
	}
	p.hist.shift(outcome)
}

// ShiftHistory implements HistoryShifter.
func (p *Perceptron) ShiftHistory(outcome bool) { p.hist.shift(outcome) }

// Reset implements Predictor.
func (p *Perceptron) Reset() {
	for i := range p.weights {
		for j := range p.weights[i] {
			p.weights[i][j] = 0
		}
	}
	if p.dbgTags != nil {
		p.dbgTags = make([]uint64, len(p.weights))
	}
	p.hist.reset()
	p.collision = false
	p.marginHist = [33]uint64{}
}

// EnableCollisionTracking implements Collider.
func (p *Perceptron) EnableCollisionTracking() {
	if p.dbgTags == nil {
		p.dbgTags = make([]uint64, len(p.weights))
	}
}

// LastCollision implements Collider.
func (p *Perceptron) LastCollision() bool { return p.collision }
