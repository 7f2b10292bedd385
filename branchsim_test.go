package branchsim_test

import (
	"context"
	"strings"
	"testing"

	"branchsim"
)

// profileOf runs the paper's phase 1 through Simulate: a bias-only profile
// when spec is empty, a predictor-accuracy profile with collisions otherwise.
func profileOf(t *testing.T, wl, input, spec string) (*branchsim.ProfileDB, branchsim.Metrics) {
	t.Helper()
	db := branchsim.NewProfileDB(wl, input)
	opts := []branchsim.SimOption{branchsim.Workload(wl), branchsim.Input(input), branchsim.WithProfileInto(db)}
	if spec != "" {
		opts = append(opts, branchsim.WithPredictorSpec(spec), branchsim.WithCollisions())
	}
	m, err := branchsim.Simulate(context.Background(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return db, m
}

func TestNewPredictorAndRun(t *testing.T) {
	p, err := branchsim.NewPredictor("gshare:2KB")
	if err != nil {
		t.Fatal(err)
	}
	m, err := branchsim.Simulate(context.Background(),
		branchsim.Workload("compress"), branchsim.Input(branchsim.InputTest),
		branchsim.WithPredictor(p), branchsim.WithCollisions())
	if err != nil {
		t.Fatal(err)
	}
	if m.Branches == 0 || m.Mispredicts == 0 || m.MISPKI() <= 0 {
		t.Fatalf("implausible metrics: %+v", m)
	}
	if !m.CollisionsTracked {
		t.Fatalf("collisions not tracked")
	}
	if m.Accuracy() < 0.5 || m.Accuracy() >= 1 {
		t.Fatalf("accuracy = %v", m.Accuracy())
	}
}

func TestRunErrors(t *testing.T) {
	ctx := context.Background()
	if _, err := branchsim.Simulate(ctx, branchsim.Workload("compress"), branchsim.Input("test"),
		branchsim.WithPredictor(nil)); err == nil {
		t.Fatalf("nil predictor accepted")
	}
	p, _ := branchsim.NewPredictor("bimodal:1KB")
	if _, err := branchsim.Simulate(ctx, branchsim.Workload("nosuch"), branchsim.Input("test"),
		branchsim.WithPredictor(p)); err == nil {
		t.Fatalf("unknown workload accepted")
	}
	if _, err := branchsim.Simulate(ctx, branchsim.Workload("compress"), branchsim.Input("nosuch"),
		branchsim.WithPredictor(p)); err == nil {
		t.Fatalf("unknown input accepted")
	}
}

func TestProfileBiasOnly(t *testing.T) {
	db, m := profileOf(t, "compress", branchsim.InputTest, "")
	if db.Predictor != "" {
		t.Fatalf("bias-only profile has predictor %q", db.Predictor)
	}
	if db.Len() == 0 || db.DynamicBranches() != m.Branches {
		t.Fatalf("profile/metrics mismatch: %d vs %d", db.DynamicBranches(), m.Branches)
	}
	if db.Instructions != m.Instructions {
		t.Fatalf("instruction counts disagree: %d vs %d", db.Instructions, m.Instructions)
	}
}

func TestProfileWithPredictor(t *testing.T) {
	db, m := profileOf(t, "compress", branchsim.InputTest, "gshare:2KB")
	if db.Predictor != "gshare" {
		t.Fatalf("profile predictor = %q", db.Predictor)
	}
	var correct uint64
	for _, b := range db.Branches() {
		correct += b.Correct
	}
	if got := m.Branches - m.Mispredicts; correct != got {
		t.Fatalf("per-branch correct (%d) does not sum to metrics (%d)", correct, got)
	}
}

func TestEndToEndCombinedImproves(t *testing.T) {
	const wl, input, spec = "gcc", branchsim.InputTest, "ghist:1KB"
	ctx := context.Background()
	run := func(p branchsim.Predictor) branchsim.Metrics {
		t.Helper()
		m, err := branchsim.Simulate(ctx, branchsim.Workload(wl), branchsim.Input(input), branchsim.WithPredictor(p))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	dyn, _ := branchsim.NewPredictor(spec)
	base := run(dyn)

	db, _ := profileOf(t, wl, input, spec)
	hints, err := branchsim.SelectHints(branchsim.StaticAcc{}, db)
	if err != nil {
		t.Fatal(err)
	}
	if hints.Len() == 0 {
		t.Fatalf("no hints selected")
	}

	dyn2, _ := branchsim.NewPredictor(spec)
	comb := branchsim.Combine(dyn2, hints, branchsim.NoShift)
	m := run(comb)
	// Self-trained Static_Acc on ghist must help (the paper's headline).
	if m.MISPKI() >= base.MISPKI() {
		t.Fatalf("combined %.3f MISP/KI did not beat baseline %.3f", m.MISPKI(), base.MISPKI())
	}
	st := comb.Stats()
	if st.StaticExecs == 0 || st.DynamicExecs == 0 {
		t.Fatalf("static/dynamic split degenerate: %+v", st)
	}
}

func TestDivergeExposedOnFacade(t *testing.T) {
	a, _ := profileOf(t, "compress", branchsim.InputTest, "")
	d := branchsim.Diverge(a, a)
	if d.CoverageStatic != 1 || d.FlipStatic != 0 {
		t.Fatalf("self-divergence = %+v", d)
	}
}

func TestWorkloadsListed(t *testing.T) {
	names := branchsim.Workloads()
	if len(names) < 6 {
		t.Fatalf("workloads = %v", names)
	}
	for _, n := range names {
		p, err := branchsim.WorkloadByName(n)
		if err != nil || p.Name() != n {
			t.Fatalf("WorkloadByName(%q): %v", n, err)
		}
		if p.Description() == "" {
			t.Fatalf("%s has no description", n)
		}
	}
}

func TestPredictorNamesConstruct(t *testing.T) {
	for _, n := range branchsim.PredictorNames() {
		if _, err := branchsim.NewPredictor(n); err != nil {
			t.Errorf("PredictorNames lists %q but New fails: %v", n, err)
		}
	}
}

func TestNewProfileDB(t *testing.T) {
	db := branchsim.NewProfileDB("w", "i")
	db.Record(4, true)
	if db.Len() != 1 || !strings.Contains(db.Workload, "w") {
		t.Fatalf("db = %+v", db)
	}
}
