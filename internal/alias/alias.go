// Package alias analyzes predictor-table interference at the branch-pair
// level: which branches share entries, how often, and whether the sharing
// partners agree (constructive) or oppose each other (destructive).
//
// The paper measures collisions as scalar counts; this package answers the
// follow-up question its future-work section raises — *which* branches to
// statically predict to kill destructive interference — by attributing every
// conflict to an (aggressor, victim) pair. The bpalias tool prints the pair
// ranking and the per-branch aggregation; nothing else imports the package.
// The StaticCol selector (internal/core) does not use it: it selects on the
// destructive-collision counts (Dcol) in the phase-1 profile.
//
// The analyzer models the index functions of the predictor schemes directly,
// rather than instrumenting a live predictor: interference is a property of
// the indexing, not of counter dynamics, and modelling it separately lets
// one analysis pass serve any table size. The single-table schemes (bimodal,
// ghist, gshare) model one bank; the multi-bank schemes (tage, perceptron)
// model every bank with the geometry the predictor package would build for
// the same budget, attributing each conflict to the bank it happened in.
package alias

import (
	"fmt"
	"sort"
	"strings"

	"branchsim/internal/predictor"
)

// Pair is one ordered interference pair: Victim looked up an entry last
// touched by Aggressor.
type Pair struct {
	Victim    uint64
	Aggressor uint64
	// Count is how many times this pair conflicted.
	Count uint64
	// Opposed counts conflicts in which the two branches' running
	// majority directions disagreed — the destructive kind.
	Opposed uint64
}

// Bank is one modeled predictor table: its geometry, the last branch to
// touch each entry, and the conflicts attributed to it.
type Bank struct {
	// Name identifies the bank ("pht" for the single-table schemes, "base"
	// and "t4" … "t64" for tage, "weights" for perceptron).
	Name string
	// Entries is the bank's capacity; HistLen the history length its index
	// consumes (0 for history-free indexing).
	Entries int
	HistLen int
	// Conflicts counts cross-branch conflicts observed in this bank.
	Conflicts uint64

	mask   uint64
	owners []uint64 // last PC per entry (0 = untouched)
	index  func(pc, hist uint64) uint64
}

// Analyzer is a trace Recorder that builds the interference graph of one
// indexing scheme over one run.
type Analyzer struct {
	scheme    string
	schemeStr string
	banks     []*Bank
	histLen   int // longest history any bank's index consumes

	hist uint64

	// per-branch running direction counts, to classify opposition
	execs map[uint64]uint64
	takes map[uint64]uint64

	pairs    map[[2]uint64]*Pair
	overflow uint64 // conflicts dropped after maxPairs distinct pairs

	Conflicts uint64 // total cross-branch conflicts observed, all banks
	Lookups   uint64 // total bank lookups (Branches × bank count)
	Branches  uint64
}

// maxPairs bounds the pair map; workloads here stay far below it, but a
// pathological stream must not exhaust memory.
const maxPairs = 1 << 20

// foldHist compresses hl bits of history into width bits by xor-folding,
// mirroring the predictor package's tagged-component indexing.
func foldHist(hist uint64, hl, width int) uint64 {
	if width <= 0 {
		return 0
	}
	h := hist
	if hl < 64 {
		h &= (uint64(1) << hl) - 1
	}
	var out uint64
	for hl > 0 {
		out ^= h & ((uint64(1) << width) - 1)
		h >>= width
		hl -= width
	}
	return out
}

// tageAliasHistLens mirrors the predictor package's geometric history
// lengths for the tagged components.
var tageAliasHistLens = []int{4, 8, 16, 32, 64}

// NewAnalyzer builds an analyzer for scheme ("bimodal", "ghist", "gshare",
// "tage" or "perceptron") with sizeBytes of predictor storage, mirroring
// the predictor package's own geometry for that budget.
func NewAnalyzer(scheme string, sizeBytes int) (*Analyzer, error) {
	scheme = strings.ToLower(scheme)
	a := &Analyzer{
		scheme: scheme,
		execs:  map[uint64]uint64{},
		takes:  map[uint64]uint64{},
		pairs:  map[[2]uint64]*Pair{},
	}
	counters2b := func(bytes int) int { // power-of-two 2-bit counters in bytes
		if bytes < 1 {
			bytes = 1
		}
		e := 1
		for e*2 <= bytes*4 {
			e *= 2
		}
		return e
	}
	switch scheme {
	case "bimodal", "ghist", "gshare":
		entries := counters2b(sizeBytes)
		histLen := 0
		if scheme != "bimodal" {
			histLen = log2i(entries)
		}
		b := &Bank{Name: "pht", Entries: entries, HistLen: histLen, mask: uint64(entries - 1)}
		switch scheme {
		case "bimodal":
			b.index = func(pc, _ uint64) uint64 { return pc >> 2 }
		case "ghist":
			b.index = func(_, h uint64) uint64 { return h }
		default: // gshare
			b.index = func(pc, h uint64) uint64 { return (pc >> 2) ^ h }
		}
		a.banks = []*Bank{b}
		a.schemeStr = fmt.Sprintf("%s:%s", scheme, predictor.FormatSize(entries/4))
	case "tage":
		// Mirror predictor.NewTAGE: the base bimodal gets a quarter of the
		// budget; the rest splits evenly across the tagged components, each
		// entry costing 3+2+tagBits bits.
		baseBudget := sizeBytes / 4
		if baseBudget < 1 {
			baseBudget = 1
		}
		baseEntries := counters2b(baseBudget)
		base := &Bank{Name: "base", Entries: baseEntries, mask: uint64(baseEntries - 1)}
		base.index = func(pc, _ uint64) uint64 { return pc >> 2 }
		a.banks = []*Bank{base}
		perComp := (sizeBytes - baseBudget) / len(tageAliasHistLens)
		for i, hl := range tageAliasHistLens {
			tagBits := 7 + i
			entryBits := 3 + 2 + tagBits
			e := 2
			for e*2*entryBits <= perComp*8 {
				e *= 2
			}
			w := log2i(e)
			hl := hl
			b := &Bank{
				Name:    fmt.Sprintf("t%d", hl),
				Entries: e,
				HistLen: hl,
				mask:    uint64(e - 1),
			}
			b.index = func(pc, h uint64) uint64 {
				x := pc >> 2
				return x ^ (x >> uint(w)) ^ foldHist(h, hl, w)
			}
			a.banks = append(a.banks, b)
		}
		a.schemeStr = fmt.Sprintf("%s:%s", scheme, predictor.FormatSize(sizeBytes))
	case "perceptron":
		// Mirror predictor.NewPerceptron: 31-bit history, 8-bit weights,
		// one vector of histLen+1 weights per entry. The index hashes the
		// PC only, so perceptron interference is history-free.
		const histLen = 31
		perEntryBits := (histLen + 1) * 8
		e := 2
		for e*2*perEntryBits <= sizeBytes*8 {
			e *= 2
		}
		b := &Bank{Name: "weights", Entries: e, mask: uint64(e - 1)}
		b.index = func(pc, _ uint64) uint64 {
			x := pc >> 2
			return x ^ (x >> 9)
		}
		a.banks = []*Bank{b}
		a.schemeStr = fmt.Sprintf("%s:%s", scheme, predictor.FormatSize(sizeBytes))
	default:
		return nil, fmt.Errorf("alias: unsupported scheme %q (want bimodal, ghist, gshare, tage or perceptron)", scheme)
	}
	for _, b := range a.banks {
		b.owners = make([]uint64, b.Entries)
		if b.HistLen > a.histLen {
			a.histLen = b.HistLen
		}
	}
	return a, nil
}

func log2i(n int) int {
	b := 0
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}

// Scheme reports the analyzed scheme and geometry.
func (a *Analyzer) Scheme() string { return a.schemeStr }

// Banks exposes the per-bank view of the analysis: geometry and conflict
// attribution for each modeled table, base-first.
func (a *Analyzer) Banks() []*Bank { return a.banks }

// Branch implements trace.Recorder.
func (a *Analyzer) Branch(pc uint64, taken bool) {
	a.Branches++
	for _, b := range a.banks {
		a.Lookups++
		h := a.hist
		if b.HistLen < 64 {
			h &= (uint64(1) << b.HistLen) - 1
		}
		idx := b.index(pc, h) & b.mask
		owner := b.owners[idx]
		if owner != 0 && owner != pc {
			a.Conflicts++
			b.Conflicts++
			key := [2]uint64{pc, owner}
			p := a.pairs[key]
			if p == nil {
				if len(a.pairs) >= maxPairs {
					a.overflow++
				} else {
					p = &Pair{Victim: pc, Aggressor: owner}
					a.pairs[key] = p
				}
			}
			if p != nil {
				p.Count++
				if a.majorityTaken(pc, taken) != a.majorityTaken(owner, false) {
					p.Opposed++
				}
			}
		}
		b.owners[idx] = pc
	}

	a.execs[pc]++
	if taken {
		a.takes[pc]++
	}
	if a.histLen > 0 {
		a.hist = a.hist<<1 | b2u(taken)
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// majorityTaken returns the branch's running majority direction; for the
// victim the current outcome is the best prior, for unseen aggressors it
// defaults to taken.
func (a *Analyzer) majorityTaken(pc uint64, fallback bool) bool {
	e := a.execs[pc]
	if e == 0 {
		return fallback
	}
	return 2*a.takes[pc] >= e
}

// Ops implements trace.Recorder.
func (a *Analyzer) Ops(uint64) {}

// Dropped reports conflicts that could not be attributed because the pair
// map was full.
func (a *Analyzer) Dropped() uint64 { return a.overflow }

// TopPairs returns the n most frequent interference pairs, most conflicts
// first (ties broken by victim then aggressor PC for determinism).
func (a *Analyzer) TopPairs(n int) []Pair {
	out := make([]Pair, 0, len(a.pairs))
	for _, p := range a.pairs {
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		if out[i].Victim != out[j].Victim {
			return out[i].Victim < out[j].Victim
		}
		return out[i].Aggressor < out[j].Aggressor
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// OpposedFraction is the fraction of attributed conflicts whose partners
// ran in opposite majority directions — a proxy for the destructive share.
func (a *Analyzer) OpposedFraction() float64 {
	var total, opposed uint64
	for _, p := range a.pairs {
		total += p.Count
		opposed += p.Opposed
	}
	if total == 0 {
		return 0
	}
	return float64(opposed) / float64(total)
}

// VictimTotals aggregates conflicts per victim branch, most-afflicted
// first. These are the natural candidates for static prediction under the
// paper's future-work selection idea.
func (a *Analyzer) VictimTotals() []Pair {
	agg := map[uint64]*Pair{}
	for _, p := range a.pairs {
		v := agg[p.Victim]
		if v == nil {
			v = &Pair{Victim: p.Victim}
			agg[p.Victim] = v
		}
		v.Count += p.Count
		v.Opposed += p.Opposed
	}
	out := make([]Pair, 0, len(agg))
	for _, p := range agg {
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Opposed != out[j].Opposed {
			return out[i].Opposed > out[j].Opposed
		}
		return out[i].Victim < out[j].Victim
	})
	return out
}

// Bias returns the observed taken-bias of a branch during the analysis.
func (a *Analyzer) Bias(pc uint64) float64 {
	e := a.execs[pc]
	if e == 0 {
		return 0
	}
	tb := float64(a.takes[pc]) / float64(e)
	if tb >= 0.5 {
		return tb
	}
	return 1 - tb
}
