package serve

import (
	"math"
	"testing"

	"branchsim/serveapi"
)

// TestGridSizeSaturates checks the arm count admission compares with the
// quota: the plain product, and math.MaxInt where four 2^16-long lists
// multiply past an int. Only the list lengths matter, so the lists hold
// empty names and nothing is expanded.
func TestGridSizeSaturates(t *testing.T) {
	spec := func(w, i, p, s int) *serveapi.JobSpec {
		return &serveapi.JobSpec{
			Workloads: make([]string, w), Inputs: make([]string, i),
			Predictors: make([]string, p), Schemes: make([]string, s),
		}
	}
	if got := gridSize(spec(64, 64, 16, 1)); got != 65536 {
		t.Errorf("gridSize(64×64×16×1) = %d, want 65536", got)
	}
	if got := gridSize(spec(1<<16, 1<<16, 1<<16, 1<<16)); got != math.MaxInt {
		t.Errorf("gridSize(2^64 arms) = %d, want math.MaxInt", got)
	}
}
