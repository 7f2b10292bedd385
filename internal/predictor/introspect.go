package predictor

import (
	"math"
	"math/bits"

	"branchsim/internal/obs"
)

// Introspector is implemented by predictors whose counter tables can be
// sampled. EnableTableStats turns on the per-entry instrumentation the
// snapshot needs (collision tags plus ownership-switch counts); Introspect
// then snapshots every table straight into the journal's obs.TableStat, the
// one declaration of a table sample. Sampling is O(entries) — callers take
// it at interval boundaries, never per branch.
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
	Introspect() []obs.TableStat
}

// stats snapshots one table. Every interval seal walks every table, so the
// walk is the telemetry's largest fixed cost. Incrementing one histogram
// entry per table entry serializes the loop on the histogram's memory (two
// neighbours in the same state bump the same cell back to back), so each
// histogram is counted in statLanes independent copies, entry i in lane
// i%statLanes, and the lanes are summed at the end. Occupancy adds
// branch-free: whether a tag is set follows the table's contents, which the
// host cannot predict.
func (t *table) stats(name string) obs.TableStat {
	s := obs.TableStat{Name: name, Entries: len(t.ctr)}
	var ctr [statLanes][ctrMax + 1]uint64
	c := t.ctr
	i := 0
	for ; i+statLanes <= len(c); i += statLanes {
		ctr[0][c[i]&ctrMax]++
		ctr[1][c[i+1]&ctrMax]++
		ctr[2][c[i+2]&ctrMax]++
		ctr[3][c[i+3]&ctrMax]++
	}
	for ; i < len(c); i++ {
		ctr[0][c[i]&ctrMax]++
	}
	for l := range ctr {
		for k, n := range ctr[l] {
			s.Counters[k] += n
		}
	}
	var occ uint64
	for _, tag := range t.tags {
		occ += nz(tag)
	}
	s.Occupied = int(occ)
	s.Entropy = counterEntropy(s.Counters)
	if t.switches != nil {
		const buckets = 33 // bits.Len32 of a uint32 is 0…32
		var lanes [statLanes][buckets]uint64
		sw := t.switches
		i := 0
		for ; i+statLanes <= len(sw); i += statLanes {
			lanes[0][bits.Len32(sw[i])]++
			lanes[1][bits.Len32(sw[i+1])]++
			lanes[2][bits.Len32(sw[i+2])]++
			lanes[3][bits.Len32(sw[i+3])]++
		}
		for ; i < len(sw); i++ {
			lanes[0][bits.Len32(sw[i])]++
		}
		hist := make([]uint64, buckets)
		top := 0
		for b := range hist {
			for l := range lanes {
				hist[b] += lanes[l][b]
			}
			if hist[b] != 0 {
				top = b
			}
		}
		s.SharingHist = hist[:top+1]
	}
	return s
}

// statLanes is how many independent copies of a histogram stats counts in.
const statLanes = 4

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
func (p *BiMode) Introspect() []obs.TableStat {
	return []obs.TableStat{
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
func (p *TwoBcGskew) Introspect() []obs.TableStat {
	return []obs.TableStat{
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
func (t *TAGE) Introspect() []obs.TableStat {
	out := make([]obs.TableStat, 0, len(t.comps)+1)
	out = append(out, t.base.stats("base"))
	for i := range t.comps {
		c := &t.comps[i]
		s := obs.TableStat{Name: tageBankNames[i], Entries: len(c.ctr)}
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
func (t *TAGE) IntrospectTagged() []obs.TaggedBankStat {
	out := make([]obs.TaggedBankStat, 0, len(t.comps)+1)
	base := obs.TaggedBankStat{
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
		b := obs.TaggedBankStat{
			Name:       tageBankNames[i],
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
func (p *Perceptron) Introspect() []obs.TableStat {
	s := obs.TableStat{Name: "weights", Entries: len(p.weights)}
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
	return []obs.TableStat{s}
}

// IntrospectTagged implements TaggedIntrospector.
func (p *Perceptron) IntrospectTagged() []obs.TaggedBankStat {
	b := obs.TaggedBankStat{
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
	return []obs.TaggedBankStat{b}
}
