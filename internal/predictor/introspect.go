package predictor

import (
	"math"
	"math/bits"
)

// TableStats is one counter table's state snapshot, produced by Introspect.
// The obs layer's TableStat mirrors this shape field-for-field so the two
// packages need not import each other.
type TableStats struct {
	// Name identifies the table within its predictor ("pht", "choice",
	// "dir_nt", "dir_t", "bim", "g0", "g1", "meta"; for the tagged/neural
	// predictors "base", "t<histLen>" and "weights").
	Name string
	// Entries is the table's capacity in counters.
	Entries int
	// Occupied counts entries read at least once (known via the collision
	// tags; EnableTableStats turns those on).
	Occupied int
	// Counters is the 2-bit counter state distribution: Counters[s] entries
	// currently hold state s (0 strong not-taken … 3 strong taken).
	Counters [4]uint64
	// Entropy is the Shannon entropy of Counters in bits: 0 when every
	// counter sits in one state, 2 at the uniform distribution. A trained
	// biased table drifts toward low entropy; aliasing pressure keeps it up.
	Entropy float64
	// SharingHist is a log₂-bucketed histogram of per-entry ownership
	// switches: bucket 0 counts entries never re-claimed by a different
	// branch, bucket k entries with 2^(k-1) ≤ switches < 2^k. Buckets sum to
	// Entries; the per-entry sharing degree behind the paper's collision
	// counts.
	SharingHist []uint64
}

// Introspector is implemented by predictors whose counter tables can be
// sampled. EnableTableStats turns on the per-entry instrumentation the
// snapshot needs (collision tags plus ownership-switch counts); Introspect
// then snapshots every table. Sampling is O(entries) — callers take it at
// interval boundaries, never per branch.
//
// Coverage: bimodal, ghist, gshare, bimode and 2bcgskew expose their 2-bit
// PHTs directly; tage folds its 3-bit tagged banks onto the 2-bit scale
// (full resolution lives in IntrospectTagged) and perceptron classifies
// each weight vector by its bias weight. The remaining registered schemes
// (agree, gskew, yags, local, mcfarling, taken, nottaken) are exempt —
// TestEveryRegisteredSpecIntrospects keeps that list explicit so new
// predictors cannot silently fall out of telemetry.
type Introspector interface {
	EnableTableStats()
	Introspect() []TableStats
}

// stats snapshots one table.
func (t *table) stats(name string) TableStats {
	s := TableStats{Name: name, Entries: len(t.ctr)}
	for _, c := range t.ctr {
		s.Counters[c&ctrMax]++
	}
	for _, tag := range t.tags {
		if tag != 0 {
			s.Occupied++
		}
	}
	s.Entropy = counterEntropy(s.Counters)
	if t.switches != nil {
		hist := make([]uint64, 33)
		maxBucket := 0
		for _, sw := range t.switches {
			b := bits.Len32(sw)
			hist[b]++
			if b > maxBucket {
				maxBucket = b
			}
		}
		s.SharingHist = hist[:maxBucket+1]
	}
	return s
}

// counterEntropy is the Shannon entropy, in bits, of a counter-state count
// vector.
func counterEntropy(counts [4]uint64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	h := 0.0
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(total)
		h -= p * math.Log2(p)
	}
	return h
}

// EnableTableStats implements Introspector.
func (p *BiMode) EnableTableStats() {
	p.choice.enableStats()
	p.direction[0].enableStats()
	p.direction[1].enableStats()
}

// Introspect implements Introspector.
func (p *BiMode) Introspect() []TableStats {
	return []TableStats{
		p.choice.stats("choice"),
		p.direction[0].stats("dir_nt"),
		p.direction[1].stats("dir_t"),
	}
}

// EnableTableStats implements Introspector.
func (p *TwoBcGskew) EnableTableStats() {
	p.bim.enableStats()
	p.g0.enableStats()
	p.g1.enableStats()
	p.meta.enableStats()
}

// Introspect implements Introspector.
func (p *TwoBcGskew) Introspect() []TableStats {
	return []TableStats{
		p.bim.stats("bim"),
		p.g0.stats("g0"),
		p.g1.stats("g1"),
		p.meta.stats("meta"),
	}
}

// EnableTableStats implements Introspector and TaggedIntrospector: it turns
// on base-table instrumentation plus the per-bank stream counters.
func (t *TAGE) EnableTableStats() {
	t.base.enableStats()
	t.statsOn = true
}

// Introspect implements Introspector. The bimodal base reports like any
// 2-bit PHT; each tagged bank folds its 3-bit counters onto the 2-bit scale
// ((ctr+4)>>1, so -4/-3 → strong not-taken … 2/3 → strong taken) and counts
// allocated entries (nonzero tag) as occupied. Full-resolution counter,
// useful-bit and tag-flow state is in IntrospectTagged.
func (t *TAGE) Introspect() []TableStats {
	out := make([]TableStats, 0, len(t.comps)+1)
	out = append(out, t.base.stats("base"))
	for i := range t.comps {
		c := &t.comps[i]
		s := TableStats{Name: tageBankName(c.histLen), Entries: len(c.ctr)}
		for _, v := range c.ctr {
			s.Counters[(int(v)+4)>>1]++
		}
		for _, tag := range c.tag {
			if tag != 0 {
				s.Occupied++
			}
		}
		s.Entropy = counterEntropy(s.Counters)
		out = append(out, s)
	}
	return out
}

// IntrospectTagged implements TaggedIntrospector.
func (t *TAGE) IntrospectTagged() []TaggedBankStats {
	out := make([]TaggedBankStats, 0, len(t.comps)+1)
	base := TaggedBankStats{
		Name:     "base",
		Entries:  t.base.entries(),
		Provider: t.sBaseProv,
	}
	base.Ctr = make([]uint64, 4)
	for _, c := range t.base.ctr {
		base.Ctr[c&ctrMax]++
	}
	for _, tag := range t.base.tags {
		if tag != 0 {
			base.Occupied++
		}
	}
	out = append(out, base)
	for i := range t.comps {
		c := &t.comps[i]
		b := TaggedBankStats{
			Name:       tageBankName(c.histLen),
			Entries:    len(c.ctr),
			HistLen:    c.histLen,
			TagBits:    c.tagBits,
			Hits:       c.sHit,
			Misses:     c.sMiss,
			Provider:   c.sProv,
			AltUsed:    c.sAlt,
			Allocs:     c.sAlloc,
			AllocFails: c.sAllocFail,
		}
		b.Ctr = make([]uint64, 8)
		b.Useful = make([]uint64, 4)
		for _, v := range c.ctr {
			b.Ctr[int(v)+4]++
		}
		for _, u := range c.useful {
			b.Useful[u&3]++
		}
		for _, tag := range c.tag {
			if tag != 0 {
				b.Occupied++
			}
		}
		out = append(out, b)
	}
	return out
}

// tageBankName names a tagged bank after its history length ("t4" … "t64").
func tageBankName(histLen int) string {
	// Avoids fmt: this runs at every table-stats interval boundary.
	buf := [8]byte{'t'}
	n := 1
	if histLen >= 10 {
		buf[n] = byte('0' + histLen/10)
		n++
	}
	buf[n] = byte('0' + histLen%10)
	n++
	return string(buf[:n])
}

// EnableTableStats implements Introspector and TaggedIntrospector: it turns
// on the occupancy tags and the margin-histogram accumulation.
func (p *Perceptron) EnableTableStats() {
	if p.dbgTags == nil {
		p.dbgTags = make([]uint64, len(p.weights))
	}
	p.statsOn = true
}

// Introspect implements Introspector. A weight vector has no 2-bit counter,
// so each entry is classified by its bias weight: strong not-taken below
// -64, weak not-taken below 0, weak taken below +64, strong taken above
// (half saturation as the strong/weak boundary). The weight-magnitude and
// margin detail is in IntrospectTagged.
func (p *Perceptron) Introspect() []TableStats {
	s := TableStats{Name: "weights", Entries: len(p.weights)}
	for i := range p.weights {
		switch w0 := p.weights[i][0]; {
		case w0 <= -64:
			s.Counters[0]++
		case w0 < 0:
			s.Counters[1]++
		case w0 < 64:
			s.Counters[2]++
		default:
			s.Counters[3]++
		}
	}
	for _, tag := range p.dbgTags {
		if tag != 0 {
			s.Occupied++
		}
	}
	s.Entropy = counterEntropy(s.Counters)
	return []TableStats{s}
}

// IntrospectTagged implements TaggedIntrospector.
func (p *Perceptron) IntrospectTagged() []TaggedBankStats {
	b := TaggedBankStats{
		Name:    "weights",
		Entries: len(p.weights),
		HistLen: p.histLen,
	}
	hist := make([]uint64, 9) // |w| ≤ 128 → Len ≤ 8
	for i := range p.weights {
		for _, w := range p.weights[i] {
			if w == 127 || w == -128 {
				b.Saturated++
			}
			m := int(w)
			if m < 0 {
				m = -m
			}
			hist[bits.Len(uint(m))]++
		}
	}
	b.Ctr = trimHist(hist)
	b.Margin = trimHist(p.marginHist[:])
	for _, tag := range p.dbgTags {
		if tag != 0 {
			b.Occupied++
		}
	}
	return []TaggedBankStats{b}
}
