// Package reference restates the paper's simplest predictors and its static
// filter straight from their definitions, as an oracle for tests. It shares
// no code with the simulator: no step functions, no hoisted state, no block
// protocol, no bit tricks — one plain method per rule, in the style of a
// textbook simulator. Only tests import it. A bug in the simulator's shared
// step functions, its block kernels or its static+dynamic wrapper passes
// every test that compares two of the simulator's own paths; it fails a
// comparison with this package.
//
// The definitions:
//
//   - A 2-bit saturating counter predicts taken at 2 and 3, powers on at 1
//     (weakly not taken), and moves one step toward each outcome.
//   - Bimodal indexes its counters with the branch's word address (byte
//     address / 4) modulo the table size.
//   - Gshare indexes with the word address XOR a global history register of
//     log2(table size) bits, the newest outcome in bit 0; it trains the
//     counter it read, then shifts the outcome into the history.
//   - Collisions, as the paper counts them (DESIGN.md §5): each counter
//     remembers the last branch that used it; a lookup by a different
//     branch is a collision, constructive when the final prediction was
//     right and destructive when it was wrong. A counter's first use is not
//     a collision.
//   - The static+dynamic combination: a hinted branch is predicted by its
//     hint and neither reads nor trains the dynamic predictor. Under
//     NoShift nothing else happens; under ShiftOutcome its outcome is still
//     shifted into the dynamic predictor's global history, and under
//     ShiftStatic its hint's direction is.
package reference

// Counter is a 2-bit saturating counter.
type Counter uint8

// Taken is the counter's prediction.
func (c Counter) Taken() bool { return c >= 2 }

// Train moves the counter one step toward the outcome, saturating at 0 and 3.
func (c *Counter) Train(taken bool) {
	if taken && *c < 3 {
		*c++
	}
	if !taken && *c > 0 {
		*c--
	}
}

// Table is an array of counters, each tagged with the last branch that
// used it.
type Table struct {
	Counters []Counter
	Owner    []uint64 // address of the last branch that used each counter
	Used     []bool   // whether any branch has used each counter yet
}

// NewTable builds the largest table of 2-bit counters whose size is a power
// of two and fits in sizeBytes, every counter at 1.
func NewTable(sizeBytes int) *Table {
	entries := 1
	for 2*entries*2 <= 8*sizeBytes {
		entries *= 2
	}
	t := &Table{
		Counters: make([]Counter, entries),
		Owner:    make([]uint64, entries),
		Used:     make([]bool, entries),
	}
	for i := range t.Counters {
		t.Counters[i] = 1
	}
	return t
}

// Use reads counter i on behalf of the branch at pc. It reports whether the
// read collided — the counter was last used by another branch — and makes
// pc the counter's owner.
func (t *Table) Use(i int, pc uint64) (taken, collided bool) {
	collided = t.Used[i] && t.Owner[i] != pc
	t.Used[i] = true
	t.Owner[i] = pc
	return t.Counters[i].Taken(), collided
}

// Predictor is a dynamic predictor in the trace-driven protocol: Predict
// then Update for each branch, in order.
type Predictor interface {
	Predict(pc uint64) (taken, collided bool)
	Update(pc uint64, taken bool)
	// ShiftHistory shifts an outcome into the global history without
	// training any counter; a predictor without history ignores it.
	ShiftHistory(taken bool)
}

// Bimodal is a table of counters indexed by branch address.
type Bimodal struct{ Table *Table }

// NewBimodal builds a bimodal predictor of sizeBytes of counters.
func NewBimodal(sizeBytes int) *Bimodal { return &Bimodal{Table: NewTable(sizeBytes)} }

func (b *Bimodal) index(pc uint64) int { return int(pc / 4 % uint64(len(b.Table.Counters))) }

// Predict implements Predictor.
func (b *Bimodal) Predict(pc uint64) (taken, collided bool) { return b.Table.Use(b.index(pc), pc) }

// Update implements Predictor.
func (b *Bimodal) Update(pc uint64, taken bool) { b.Table.Counters[b.index(pc)].Train(taken) }

// ShiftHistory implements Predictor: bimodal keeps no history.
func (b *Bimodal) ShiftHistory(bool) {}

// GShare is a table of counters indexed by branch address XOR global
// history.
type GShare struct {
	Table   *Table
	History uint64 // the last Bits outcomes, newest in bit 0
	Bits    int
}

// NewGShare builds a gshare predictor of sizeBytes of counters whose
// history is as long as the index is wide.
func NewGShare(sizeBytes int) *GShare {
	g := &GShare{Table: NewTable(sizeBytes)}
	for 1<<g.Bits < len(g.Table.Counters) {
		g.Bits++
	}
	return g
}

func (g *GShare) index(pc uint64) int {
	return int((pc/4 ^ g.History) % uint64(len(g.Table.Counters)))
}

// Predict implements Predictor.
func (g *GShare) Predict(pc uint64) (taken, collided bool) { return g.Table.Use(g.index(pc), pc) }

// Update implements Predictor: train the counter Predict read, then shift.
func (g *GShare) Update(pc uint64, taken bool) {
	g.Table.Counters[g.index(pc)].Train(taken)
	g.ShiftHistory(taken)
}

// ShiftHistory implements Predictor.
func (g *GShare) ShiftHistory(taken bool) {
	g.History *= 2
	if taken {
		g.History++
	}
	g.History %= 1 << g.Bits
}

// Combined is the paper's static+dynamic predictor: hinted branches take
// their static prediction, every other branch goes to Dyn.
type Combined struct {
	Dyn          Predictor
	Hints        map[uint64]bool // hinted branch address → static direction
	ShiftOutcome bool            // shift hinted outcomes into Dyn's history
	ShiftHint    bool            // shift the hints' directions instead

	StaticExecs, StaticMispred, DynamicExecs uint64
}

// Step simulates one branch and reports whether it was predicted correctly
// and whether its lookup collided.
func (c *Combined) Step(pc uint64, taken bool) (correct, collided bool) {
	if hint, ok := c.Hints[pc]; ok {
		c.StaticExecs++
		if hint != taken {
			c.StaticMispred++
		}
		switch {
		case c.ShiftOutcome:
			c.Dyn.ShiftHistory(taken)
		case c.ShiftHint:
			c.Dyn.ShiftHistory(hint)
		}
		return hint == taken, false
	}
	c.DynamicExecs++
	pred, collided := c.Dyn.Predict(pc)
	c.Dyn.Update(pc, taken)
	return pred == taken, collided
}

// Site is one static branch's profile: executions, taken outcomes, correct
// predictions and destructive collisions.
type Site struct{ Exec, Taken, Correct, Dcol uint64 }

// Result is what Run measured.
type Result struct {
	Branches, Taken, Mispredicts             uint64
	Collisions, Constructive, Destructive    uint64
	Correct, Collided                        []bool // per event
	Sites                                    map[uint64]*Site
	StaticExecs, StaticMispred, DynamicExecs uint64
}

// Run simulates the stream (pcs[i] resolved taken[i]) through c.
func Run(c *Combined, pcs []uint64, taken []bool) Result {
	r := Result{Sites: map[uint64]*Site{}}
	for i, pc := range pcs {
		correct, collided := c.Step(pc, taken[i])
		r.Branches++
		r.Correct = append(r.Correct, correct)
		r.Collided = append(r.Collided, collided)
		s := r.Sites[pc]
		if s == nil {
			s = &Site{}
			r.Sites[pc] = s
		}
		s.Exec++
		if taken[i] {
			r.Taken++
			s.Taken++
		}
		if correct {
			s.Correct++
		} else {
			r.Mispredicts++
		}
		if collided {
			r.Collisions++
			if correct {
				r.Constructive++
			} else {
				r.Destructive++
				s.Dcol++
			}
		}
	}
	r.StaticExecs, r.StaticMispred, r.DynamicExecs = c.StaticExecs, c.StaticMispred, c.DynamicExecs
	return r
}
