// Package alias analyzes predictor-table interference at the branch-pair
// level: which branches share entries, how often, and whether the sharing
// cost a misprediction (destructive) or not (constructive).
//
// The paper measures collisions as scalar counts; this package answers the
// follow-up question its future-work section raises — *which* branches to
// statically predict to kill destructive interference — by attributing every
// conflict to an (aggressor, victim) pair. The bpalias tool prints the pair
// ranking and the per-branch aggregation; nothing else imports the package.
// The StaticCol selector (internal/core) does not use it: it selects on the
// destructive-collision counts (Dcol) in the phase-1 profile.
//
// The analyzer drives the live predictor a spec builds and asks it which
// entries each prediction read (predictor.EntryReporter), so the index
// functions and table geometry exist only in the predictor package. A
// branch conflicts when any entry it read was last used by another branch,
// and the conflict is destructive when the prediction was wrong: the
// simulator's collision rule, so the analyzer's totals equal
// sim.Metrics.Collisions for every spec.
package alias

import (
	"slices"
	"sort"

	"branchsim/internal/predictor"
)

// Pair is one ordered interference pair: Victim read an entry last used by
// Aggressor.
type Pair struct {
	Victim    uint64
	Aggressor uint64
	// Count is how many entries the victim read from the aggressor.
	Count uint64
	// Destructive counts those reads whose prediction was wrong.
	Destructive uint64
}

// Table is the conflicts attributed to one of the predictor's tables.
type Table struct {
	// Name is the table's name in the predictor ("pht" for the single-table
	// schemes, "base" and "t4" … "t64" for tage, ...).
	Name string
	// Conflicts counts entries of this table read by a branch other than
	// their last user.
	Conflicts uint64

	owners []uint64 // last user of each entry read so far, as pc+1 (0 = unused)
}

// Analyzer is a trace Recorder that runs one predictor over a branch stream
// and builds its interference graph.
type Analyzer struct {
	spec string
	p    predictor.Predictor
	rep  predictor.EntryReporter // nil for predictors that read no table

	entries []predictor.Entry     // the current prediction's reads
	tables  []*Table              // first-read order
	pairs   map[[2]uint64]*Pair   // by (victim, aggressor)
	sites   map[uint64]*[2]uint64 // executions and taken outcomes per branch

	overflow uint64 // entry conflicts dropped after maxPairs distinct pairs

	// Branches counts the stream; Conflicts the branches that read at least
	// one entry last used by another branch (the simulator's collisions);
	// Destructive the conflicting branches that were mispredicted.
	Branches, Conflicts, Destructive uint64
}

// maxPairs bounds the pair map; workloads here stay far below it, but a
// pathological stream must not exhaust memory.
const maxPairs = 1 << 20

// NewAnalyzer builds an analyzer around the predictor spec describes (any
// spec predictor.ParseSpec accepts).
func NewAnalyzer(spec string) (*Analyzer, error) {
	s, err := predictor.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	p, err := s.Build()
	if err != nil {
		return nil, err
	}
	rep, _ := p.(predictor.EntryReporter)
	return &Analyzer{
		spec:  s.String(),
		p:     p,
		rep:   rep,
		pairs: map[[2]uint64]*Pair{},
		sites: map[uint64]*[2]uint64{},
	}, nil
}

// Spec reports the analyzed predictor's canonical spec.
func (a *Analyzer) Spec() string { return a.spec }

// Tables is the per-table split of the entry conflicts, in the order the
// tables were first read.
func (a *Analyzer) Tables() []*Table { return a.tables }

// Branch implements trace.Recorder: predict, attribute every entry the
// prediction read whose last user was another branch, then train.
func (a *Analyzer) Branch(pc uint64, taken bool) {
	a.Branches++
	wrong := a.p.Predict(pc) != taken
	collided := false
	if a.rep != nil {
		a.entries = a.rep.LastEntries(pc, a.entries[:0])
		for _, e := range a.entries {
			t := a.table(e.Table)
			if n := int(e.Index) + 1; n > len(t.owners) {
				t.owners = slices.Grow(t.owners, n-len(t.owners))[:n]
			}
			old := t.owners[e.Index]
			t.owners[e.Index] = pc + 1
			if old == 0 || old == pc+1 {
				continue
			}
			collided = true
			t.Conflicts++
			a.charge(pc, old-1, wrong)
		}
	}
	if collided {
		a.Conflicts++
		if wrong {
			a.Destructive++
		}
	}
	a.p.Update(pc, taken)
	n := a.sites[pc]
	if n == nil {
		n = new([2]uint64)
		a.sites[pc] = n
	}
	n[0]++
	if taken {
		n[1]++
	}
}

// table returns the named table, adding it on first use. A predictor has at
// most six tables, so a scan beats a map.
func (a *Analyzer) table(name string) *Table {
	for _, t := range a.tables {
		if t.Name == name {
			return t
		}
	}
	t := &Table{Name: name}
	a.tables = append(a.tables, t)
	return t
}

// charge attributes one entry conflict to the (victim, aggressor) pair.
func (a *Analyzer) charge(victim, aggressor uint64, wrong bool) {
	key := [2]uint64{victim, aggressor}
	p := a.pairs[key]
	if p == nil {
		if len(a.pairs) >= maxPairs {
			a.overflow++
			return
		}
		p = &Pair{Victim: victim, Aggressor: aggressor}
		a.pairs[key] = p
	}
	p.Count++
	if wrong {
		p.Destructive++
	}
}

// Ops implements trace.Recorder.
func (a *Analyzer) Ops(uint64) {}

// Dropped reports entry conflicts that could not be attributed because the
// pair map was full.
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

// VictimTotals aggregates conflicts per victim branch, most destructive
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
		v.Destructive += p.Destructive
	}
	out := make([]Pair, 0, len(agg))
	for _, p := range agg {
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Destructive != out[j].Destructive {
			return out[i].Destructive > out[j].Destructive
		}
		return out[i].Victim < out[j].Victim
	})
	return out
}

// Bias returns the observed taken-bias of a branch during the analysis.
func (a *Analyzer) Bias(pc uint64) float64 {
	n := a.sites[pc]
	if n == nil {
		return 0
	}
	tb := float64(n[1]) / float64(n[0])
	if tb >= 0.5 {
		return tb
	}
	return 1 - tb
}
