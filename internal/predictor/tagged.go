package predictor

import "branchsim/internal/obs"

// TaggedIntrospector is implemented by predictors with tagged or neural
// banks whose state exceeds what a 2-bit obs.TableStat can express.
// EnableTableStats (shared with Introspector) turns on the instrumentation;
// IntrospectTagged snapshots every bank into the journal's
// obs.TaggedBankStat. The stream counters accumulate from EnableTableStats
// onward and are functions of the branch stream alone, so journals built
// from them stay byte-identical at any worker or batch setting. Sampling is
// O(entries) — callers take it at interval boundaries, never per branch.
type TaggedIntrospector interface {
	EnableTableStats()
	IntrospectTagged() []obs.TaggedBankStat
}

// trimHist drops trailing zero buckets, keeping at least one.
func trimHist(h []uint64) []uint64 {
	n := len(h)
	for n > 1 && h[n-1] == 0 {
		n--
	}
	out := make([]uint64, n)
	copy(out, h[:n])
	return out
}
