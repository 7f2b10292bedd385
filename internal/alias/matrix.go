package alias

import (
	"fmt"
	"sort"
)

// Matrix is a dense victims×aggressors view of the interference graph,
// restricted to the most conflict-involved branches so it stays small enough
// to render as a heatmap. Rows are victims, columns aggressors; both axes
// share the same PC set (a hot branch usually plays both roles), ranked by
// total conflict involvement.
type Matrix struct {
	// PCs labels both axes, hottest branch first.
	PCs []uint64
	// Counts[v][a] is how often victim PCs[v] conflicted with aggressor
	// PCs[a]; Destructive counts the subset whose prediction was wrong.
	Counts      [][]uint64
	Destructive [][]uint64
	// Dropped counts conflicts attributed to pairs with at least one branch
	// outside the top-n set.
	Dropped uint64
}

// Matrix builds the conflict matrix over the n most conflict-involved
// branches (n <= 0 or n larger than the population means all of them).
func (a *Analyzer) Matrix(n int) *Matrix {
	involvement := map[uint64]uint64{}
	for _, p := range a.pairs {
		involvement[p.Victim] += p.Count
		involvement[p.Aggressor] += p.Count
	}
	pcs := make([]uint64, 0, len(involvement))
	for pc := range involvement {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool {
		if involvement[pcs[i]] != involvement[pcs[j]] {
			return involvement[pcs[i]] > involvement[pcs[j]]
		}
		return pcs[i] < pcs[j]
	})
	if n > 0 && len(pcs) > n {
		pcs = pcs[:n]
	}

	idx := make(map[uint64]int, len(pcs))
	for i, pc := range pcs {
		idx[pc] = i
	}
	m := &Matrix{
		PCs:         pcs,
		Counts:      make([][]uint64, len(pcs)),
		Destructive: make([][]uint64, len(pcs)),
	}
	for i := range m.Counts {
		m.Counts[i] = make([]uint64, len(pcs))
		m.Destructive[i] = make([]uint64, len(pcs))
	}
	for _, p := range a.pairs {
		vi, okV := idx[p.Victim]
		ai, okA := idx[p.Aggressor]
		if !okV || !okA {
			m.Dropped += p.Count
			continue
		}
		m.Counts[vi][ai] += p.Count
		m.Destructive[vi][ai] += p.Destructive
	}
	return m
}

// Labels formats the matrix's PCs as hex axis labels.
func (m *Matrix) Labels() []string {
	out := make([]string, len(m.PCs))
	for i, pc := range m.PCs {
		out[i] = fmt.Sprintf("0x%x", pc)
	}
	return out
}
