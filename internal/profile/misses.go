package profile

import "branchsim/internal/pcslot"

// Misses is what a run of a dynamic predictor adds to a bias profile of the
// same stream, per branch: the executions it mispredicted, the destructive
// collisions among them and, when the predictor grades itself, the
// executions it graded low-confidence. Annotate joins the two into the
// predictor's phase-1 profile, so the run that measures the predictor with
// no hints is also its profiling pass. Correct executions with a confident
// grade, most of a stream, cost nothing to record.
type Misses struct {
	idx  pcslot.Index
	recs []missCounts // recs[s] counts idx's slot s
}

type missCounts struct{ miss, dcol, lowconf uint64 }

// Record notes one execution of the branch at pc that was mispredicted
// (correct false; destructive when its lookup also collided) or graded low
// confidence. Callers may skip correct, confident executions.
func (m *Misses) Record(pc uint64, correct, destructive, low bool) {
	s := m.idx.Slot(pc)
	if s < 0 {
		s = m.add(pc)
	}
	c := &m.recs[s]
	c.miss += pcslot.Bit(!correct)
	c.dcol += pcslot.Bit(destructive)
	c.lowconf += pcslot.Bit(low)
}

// add gives pc a slot with zero counts. Record's per-event path calls it
// once per branch site, so it stays out of line.
func (m *Misses) add(pc uint64) int {
	m.recs = append(m.recs, missCounts{})
	return m.idx.Add(pc)
}

// RecordBlock records a block's mispredicted executions: correct[i] says
// whether the branch at pcs[i] was predicted right, and collided, when
// non-nil, marks the lookups that collided, so that a collided miss is a
// destructive collision.
func (m *Misses) RecordBlock(pcs []uint64, correct, collided []bool) {
	for i, ok := range correct[:len(pcs)] {
		if !ok {
			m.Record(pcs[i], false, collided != nil && collided[i], false)
		}
	}
}

// Annotate returns a copy of d, a bias profile, as the phase-1 profile of
// the predictor named pred, whose run over the same stream recorded m: per
// branch, Correct is Exec less the misses, and Dcol and LowConf are m's.
func (d *DB) Annotate(m *Misses, pred string) *DB {
	out := d.Clone()
	out.Predictor = pred
	for _, b := range out.byPC {
		b.Correct = b.Exec
	}
	for s, pc := range m.idx.PCs() {
		b, c := out.stats(pc), m.recs[s]
		b.Correct -= c.miss
		b.Dcol, b.LowConf = c.dcol, c.lowconf
	}
	return out
}
