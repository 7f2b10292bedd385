// Package profile implements the profile database the paper's methodology
// rests on: per-branch execution counts, taken counts and — for Static_Acc
// selection — per-branch accuracy of a specific dynamic predictor, collected
// in a phase-1 simulation.
//
// The package also models the Spike-style profile maintenance the paper
// proposes for cross-training robustness (§5.1): merging databases from
// several inputs and filtering out branches whose bias drifts between runs.
package profile

import (
	"fmt"
	"sort"

	"branchsim/internal/pcslot"
)

// BranchStats accumulates the behaviour of one static conditional branch.
type BranchStats struct {
	PC      uint64 `json:"pc"`
	Exec    uint64 `json:"exec"`
	Taken   uint64 `json:"taken"`
	Correct uint64 `json:"correct,omitempty"` // phase-1 dynamic-predictor hits; meaningful only if DB.Predictor != ""
	Dcol    uint64 `json:"dcol,omitempty"`    // phase-1 destructive collisions suffered by this branch
	LowConf uint64 `json:"lowconf,omitempty"` // phase-1 low-confidence executions; only if the predictor grades itself
}

// TakenBias is the fraction of executions in which the branch was taken.
func (b *BranchStats) TakenBias() float64 {
	if b.Exec == 0 {
		return 0
	}
	return float64(b.Taken) / float64(b.Exec)
}

// Bias is the paper's bias metric: max(taken-bias, not-taken-bias), in
// [0.5, 1] for any executed branch and 0 for a never-executed one.
func (b *BranchStats) Bias() float64 {
	if b.Exec == 0 {
		return 0
	}
	tb := b.TakenBias()
	if tb >= 0.5 {
		return tb
	}
	return 1 - tb
}

// MajorityTaken reports the branch's dominant direction; ties count as
// taken.
func (b *BranchStats) MajorityTaken() bool { return 2*b.Taken >= b.Exec }

// Accuracy is the phase-1 dynamic predictor's per-branch prediction
// accuracy. It is 0 for a DB collected without a predictor.
func (b *BranchStats) Accuracy() float64 {
	if b.Exec == 0 {
		return 0
	}
	return float64(b.Correct) / float64(b.Exec)
}

// LowConfRate is the fraction of phase-1 executions the dynamic predictor
// graded as low confidence. It is 0 for a DB collected without a
// self-grading predictor.
func (b *BranchStats) LowConfRate() float64 {
	if b.Exec == 0 {
		return 0
	}
	return float64(b.LowConf) / float64(b.Exec)
}

// DB is a profile database for one (workload, input) pair, optionally
// annotated with per-branch accuracy of one dynamic predictor.
//
// The recording methods reach a branch's record through a slot cache (idx
// and recs) instead of the map: one multiply and two loads per execution.
// The cache points into byPC and is written only by recording, so reading a
// filled database writes nothing.
type DB struct {
	Workload     string `json:"workload"`
	Input        string `json:"input"`
	Predictor    string `json:"predictor,omitempty"` // spec whose accuracy Correct records
	Instructions uint64 `json:"instructions"`

	byPC map[uint64]*BranchStats
	idx  pcslot.Index
	// recs[s+1] is byPC's record for idx's slot s; recs[0] is nil and
	// answers every miss.
	recs []*BranchStats
}

// NewDB returns an empty database.
func NewDB(workload, input string) *DB {
	return &DB{Workload: workload, Input: input, byPC: map[uint64]*BranchStats{}, recs: make([]*BranchStats, 1)}
}

// Get returns the stats for pc, or nil if the branch never executed.
func (d *DB) Get(pc uint64) *BranchStats { return d.byPC[pc] }

// Len returns the number of static branches recorded.
func (d *DB) Len() int { return len(d.byPC) }

// DynamicBranches returns the total dynamic conditional branch count.
func (d *DB) DynamicBranches() uint64 {
	var n uint64
	for _, b := range d.byPC {
		n += b.Exec
	}
	return n
}

// Branches returns all recorded branches sorted by PC.
func (d *DB) Branches() []*BranchStats {
	out := make([]*BranchStats, 0, len(d.byPC))
	for _, b := range d.byPC {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PC < out[j].PC })
	return out
}

// stats returns the record for pc, creating it on first use.
func (d *DB) stats(pc uint64) *BranchStats {
	b := d.byPC[pc]
	if b == nil {
		b = &BranchStats{PC: pc}
		d.byPC[pc] = b
	}
	return b
}

// probe returns pc's record through the slot cache, or nil when pc has no
// slot yet. It is the per-event recording paths' lookup, and it inlines;
// cache handles the miss.
func (d *DB) probe(pc uint64) *BranchStats { return d.recs[d.idx.Slot(pc)+1] }

// cache gives pc a slot holding its record, creating the record on first
// use, and returns the record.
func (d *DB) cache(pc uint64) *BranchStats {
	b := d.stats(pc)
	d.idx.Add(pc)
	d.recs = append(d.recs, b)
	return b
}

// uncache drops the slot cache; a deletion from byPC must, so that no slot
// keeps writing to a record the database no longer holds.
func (d *DB) uncache() {
	d.idx = pcslot.Index{}
	d.recs = make([]*BranchStats, 1)
}

// record returns pc's record for the recording paths.
func (d *DB) record(pc uint64) *BranchStats {
	if b := d.probe(pc); b != nil {
		return b
	}
	return d.cache(pc)
}

// Record adds one dynamic execution of the branch at pc.
func (d *DB) Record(pc uint64, taken bool) {
	b := d.probe(pc)
	if b == nil {
		b = d.cache(pc)
	}
	b.Exec++
	b.Taken += pcslot.Bit(taken)
}

// RecordPredicted adds one dynamic execution together with whether the
// phase-1 predictor got it right.
func (d *DB) RecordPredicted(pc uint64, taken, correct bool) {
	b := d.probe(pc)
	if b == nil {
		b = d.cache(pc)
	}
	b.Exec++
	b.Taken += pcslot.Bit(taken)
	b.Correct += pcslot.Bit(correct)
}

// RecordBlock records a block of executions in program order: the branch
// at pcs[i] resolved taken[i]. correct, when non-nil, holds whether the
// phase-1 predictor got each one right, as RecordPredicted; collided, when
// non-nil, marks the executions whose lookup collided, and each of those
// the predictor got wrong is a destructive collision, as
// RecordDestructiveCollision. collided needs correct.
//
// The loops keep the index and the records in locals, refreshed only when
// a new branch gets a slot: read through the DB, every counter store forces
// the next event to reload them, and one loop with the nil checks inside
// measured 20–40% slower per event.
func (d *DB) RecordBlock(pcs []uint64, taken, correct, collided []bool) {
	taken = taken[:len(pcs)]
	idx, recs := d.idx, d.recs
	switch {
	case correct == nil:
		for i, pc := range pcs {
			b := recs[idx.Slot(pc)+1]
			if b == nil {
				b = d.cache(pc)
				idx, recs = d.idx, d.recs
			}
			b.Exec++
			b.Taken += pcslot.Bit(taken[i])
		}
	case collided == nil:
		correct = correct[:len(pcs)]
		for i, pc := range pcs {
			b := recs[idx.Slot(pc)+1]
			if b == nil {
				b = d.cache(pc)
				idx, recs = d.idx, d.recs
			}
			b.Exec++
			b.Taken += pcslot.Bit(taken[i])
			b.Correct += pcslot.Bit(correct[i])
		}
	default:
		correct, collided = correct[:len(pcs)], collided[:len(pcs)]
		for i, pc := range pcs {
			b := recs[idx.Slot(pc)+1]
			if b == nil {
				b = d.cache(pc)
				idx, recs = d.idx, d.recs
			}
			ok := pcslot.Bit(correct[i])
			b.Exec++
			b.Taken += pcslot.Bit(taken[i])
			b.Correct += ok
			b.Dcol += pcslot.Bit(collided[i]) &^ ok
		}
	}
}

// RecordDestructiveCollision notes that the branch at pc suffered a
// destructive collision in the phase-1 predictor (its lookup aliased with
// another branch and the prediction was wrong). Used by the
// collision-targeted selection scheme.
func (d *DB) RecordDestructiveCollision(pc uint64) { d.record(pc).Dcol++ }

// RecordLowConfidence notes that the phase-1 predictor graded one execution
// of the branch at pc as low confidence. Used by the confidence-based
// selection scheme (Static_Conf).
func (d *DB) RecordLowConfidence(pc uint64) { d.record(pc).LowConf++ }

// Remove deletes the branch at pc from the database.
func (d *DB) Remove(pc uint64) {
	delete(d.byPC, pc)
	d.uncache()
}

// Clone returns a deep copy.
func (d *DB) Clone() *DB {
	out := NewDB(d.Workload, d.Input)
	out.Predictor = d.Predictor
	out.Instructions = d.Instructions
	for pc, b := range d.byPC {
		cp := *b
		out.byPC[pc] = &cp
	}
	return out
}

// Merge folds other into d, summing per-branch counts — the Spike model of
// accumulating profiles across program runs. Accuracy counts are summed only
// when both databases were profiled against the same predictor spec;
// otherwise the merged DB drops its predictor annotation (bias data, which
// Static_95 needs, remains valid).
func (d *DB) Merge(other *DB) {
	if other == nil {
		return
	}
	samePred := d.Predictor != "" && d.Predictor == other.Predictor
	if !samePred {
		d.Predictor = ""
	}
	d.Instructions += other.Instructions
	for pc, ob := range other.byPC {
		b := d.stats(pc)
		b.Exec += ob.Exec
		b.Taken += ob.Taken
		if samePred {
			b.Correct += ob.Correct
			b.Dcol += ob.Dcol
			b.LowConf += ob.LowConf
		} else {
			b.Correct = 0
			b.Dcol = 0
			b.LowConf = 0
		}
	}
	if !samePred {
		for _, b := range d.byPC {
			b.Correct = 0
			b.Dcol = 0
			b.LowConf = 0
		}
	}
	if d.Input != other.Input {
		d.Input = d.Input + "+" + other.Input
	}
}

// RemoveUnstable deletes from d every branch that also appears in other and
// whose taken-bias differs by more than maxDrift (e.g. 0.05 for the paper's
// 5% filter). This is the profile-maintenance step behind the fourth bar of
// Figure 13: hints are then generated only from branches whose behaviour is
// stable across inputs. It returns the number of branches removed.
func (d *DB) RemoveUnstable(other *DB, maxDrift float64) int {
	removed := 0
	for pc, b := range d.byPC {
		ob := other.byPC[pc]
		if ob == nil {
			continue
		}
		drift := b.TakenBias() - ob.TakenBias()
		if drift < 0 {
			drift = -drift
		}
		if drift > maxDrift {
			delete(d.byPC, pc)
			removed++
		}
	}
	if removed > 0 {
		d.uncache()
	}
	return removed
}

// Validate performs internal consistency checks and returns the first
// problem found.
func (d *DB) Validate() error {
	for pc, b := range d.byPC {
		if b.PC != pc {
			return fmt.Errorf("profile: key %#x holds record for pc %#x", pc, b.PC)
		}
		if b.Taken > b.Exec {
			return fmt.Errorf("profile: pc %#x: taken %d > exec %d", pc, b.Taken, b.Exec)
		}
		if b.Correct > b.Exec {
			return fmt.Errorf("profile: pc %#x: correct %d > exec %d", pc, b.Correct, b.Exec)
		}
		if b.LowConf > b.Exec {
			return fmt.Errorf("profile: pc %#x: lowconf %d > exec %d", pc, b.LowConf, b.Exec)
		}
	}
	return nil
}
