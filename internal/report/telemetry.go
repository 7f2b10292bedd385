package report

import (
	"fmt"

	"branchsim/internal/obs"
)

// TopOffenders renders the worst-offender lists from top-K telemetry records
// as one table: for each arm, the n most-mispredicted branch sites with their
// execution profile and the sketch's error bound on the count. MaxError is
// the space-saving overestimate bound — the true count lies in
// [Count-MaxError, Count].
func TopOffenders(recs []obs.TopKRecord, n int) *Table {
	t := NewTable("Worst-offender branches",
		"ARM", "PC", "EXECS", "BIAS", "MISP RATE", "MISPREDICTS", "MAX ERR")
	for i := range recs {
		r := &recs[i]
		rows := r.TopMispredicted
		if n > 0 && len(rows) > n {
			rows = rows[:n]
		}
		for _, bc := range rows {
			t.AddRow(r.Key(),
				fmt.Sprintf("0x%x", bc.PC),
				fmt.Sprintf("%d", bc.Execs),
				F(bc.Bias, 3),
				Pct(bc.MispRate),
				fmt.Sprintf("%d", bc.Count),
				fmt.Sprintf("%d", bc.MaxError))
		}
		if r.SitesDropped > 0 {
			t.AddNote("%s: %d executions of branches past the %d-site cap were not profiled",
				r.Key(), r.SitesDropped, r.Sites)
		}
	}
	t.AddNote("mispredict counts are space-saving sketch estimates; true count >= MISPREDICTS - MAX ERR")
	return t
}

// IntervalSummary condenses interval telemetry into one row per arm: how
// many intervals the run spanned, the totals reconstructed from the interval
// deltas, and the worst interval (peak MISPs/KI and where it happened).
func IntervalSummary(recs []obs.IntervalRecord) *Table {
	type arm struct {
		key       string
		intervals int
		instr     uint64
		branches  uint64
		misp      uint64
		peak      float64
		peakAt    uint64 // instruction boundary of the worst interval
	}
	byKey := map[string]*arm{}
	var order []*arm
	for i := range recs {
		r := &recs[i]
		a := byKey[r.Key()]
		if a == nil {
			a = &arm{key: r.Key()}
			byKey[r.Key()] = a
			order = append(order, a)
		}
		a.intervals++
		a.branches += r.DBranches
		a.misp += r.DMispredicts
		if r.Instructions > a.instr {
			a.instr = r.Instructions
		}
		if ki := r.MISPKI(); ki > a.peak {
			a.peak = ki
			a.peakAt = r.Instructions
		}
	}

	t := NewTable("Interval telemetry summary",
		"ARM", "INTERVALS", "INSTRUCTIONS", "BRANCHES", "MISP/KI", "PEAK MISP/KI", "PEAK AT")
	for _, a := range order {
		mispki := 0.0
		if a.instr > 0 {
			mispki = 1000 * float64(a.misp) / float64(a.instr)
		}
		t.AddRow(a.key,
			fmt.Sprintf("%d", a.intervals),
			fmt.Sprintf("%d", a.instr),
			fmt.Sprintf("%d", a.branches),
			F(mispki, 3),
			F(a.peak, 3),
			fmt.Sprintf("%d", a.peakAt))
	}
	return t
}

// ConfidenceSummary condenses confidence telemetry into one row per arm:
// the aggregate low-confidence prediction rate, the share of mispredictions
// that fell on low-confidence predictions (the cover a confidence-based
// static filter would get), and the interval where the low rate peaked.
func ConfidenceSummary(recs []obs.ConfidenceRecord) *Table {
	type arm struct {
		key               string
		intervals         int
		branches, low     uint64
		lowMisp, highMisp uint64
		peakLow           float64
		peakAt            uint64
	}
	byKey := map[string]*arm{}
	var order []*arm
	for i := range recs {
		r := &recs[i]
		a := byKey[r.Key()]
		if a == nil {
			a = &arm{key: r.Key()}
			byKey[r.Key()] = a
			order = append(order, a)
		}
		a.intervals++
		a.branches += r.DBranches
		a.low += r.DLow
		a.lowMisp += r.DLowMispredicts
		a.highMisp += r.DHighMispredicts
		if lr := r.LowRate(); lr > a.peakLow {
			a.peakLow = lr
			a.peakAt = r.Instructions
		}
	}

	t := NewTable("Confidence telemetry summary",
		"ARM", "INTERVALS", "BRANCHES", "LOW RATE", "LOW-CONF MISP SHARE", "PEAK LOW", "PEAK AT")
	for _, a := range order {
		lowRate := 0.0
		if a.branches > 0 {
			lowRate = float64(a.low) / float64(a.branches)
		}
		share := 0.0
		if m := a.lowMisp + a.highMisp; m > 0 {
			share = float64(a.lowMisp) / float64(m)
		}
		t.AddRow(a.key,
			fmt.Sprintf("%d", a.intervals),
			fmt.Sprintf("%d", a.branches),
			Pct(lowRate),
			Pct(share),
			Pct(a.peakLow),
			fmt.Sprintf("%d", a.peakAt))
	}
	t.AddNote("LOW-CONF MISP SHARE is the fraction of mispredictions a filter on low-confidence branches could reach")
	return t
}

// TaggedTableSummary renders the final tagged-bank sample of each arm — the
// stream counters are cumulative, so the last sample is the run's total —
// as one row per bank: occupancy, tag hit rate, provider share, and
// allocation churn.
func TaggedTableSummary(recs []obs.TaggedTableStatsRecord) *Table {
	last := map[string]*obs.TaggedTableStatsRecord{}
	var order []string
	for i := range recs {
		r := &recs[i]
		if _, ok := last[r.Key()]; !ok {
			order = append(order, r.Key())
		}
		last[r.Key()] = r
	}

	t := NewTable("Tagged-table introspection (final sample)",
		"ARM", "BANK", "ENTRIES", "OCCUPANCY", "TAG HIT", "PROVIDER", "ALT USED", "ALLOCS", "ALLOC FAILS")
	for _, key := range order {
		r := last[key]
		for _, b := range r.Banks {
			occ := 0.0
			if b.Entries > 0 {
				occ = float64(b.Occupied) / float64(b.Entries)
			}
			hit := "-"
			if lookups := b.Hits + b.Misses; lookups > 0 {
				hit = Pct(float64(b.Hits) / float64(lookups))
			}
			t.AddRow(key, b.Name,
				fmt.Sprintf("%d", b.Entries),
				Pct(occ),
				hit,
				fmt.Sprintf("%d", b.Provider),
				fmt.Sprintf("%d", b.AltUsed),
				fmt.Sprintf("%d", b.Allocs),
				fmt.Sprintf("%d", b.AllocFails))
		}
	}
	return t
}

// LowConfidenceOffenders renders the low-confidence top-K lists: for each
// arm, the n branch sites the predictor flagged unsure most often, with the
// per-site low-confidence fraction from the bounded site tracker.
func LowConfidenceOffenders(recs []obs.TopKRecord, n int) *Table {
	t := NewTable("Low-confidence branches",
		"ARM", "PC", "EXECS", "BIAS", "MISP RATE", "LOW RATE", "LOW COUNT", "MAX ERR")
	rows := 0
	for i := range recs {
		r := &recs[i]
		list := r.TopLowConfidence
		if n > 0 && len(list) > n {
			list = list[:n]
		}
		for _, bc := range list {
			rows++
			t.AddRow(r.Key(),
				fmt.Sprintf("0x%x", bc.PC),
				fmt.Sprintf("%d", bc.Execs),
				F(bc.Bias, 3),
				Pct(bc.MispRate),
				Pct(bc.LowRate),
				fmt.Sprintf("%d", bc.Count),
				fmt.Sprintf("%d", bc.MaxError))
		}
	}
	if rows == 0 {
		return nil
	}
	t.AddNote("low counts are space-saving sketch estimates; true count >= LOW COUNT - MAX ERR")
	return t
}
