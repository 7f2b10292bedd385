package sim_test

import (
	"context"
	"testing"

	"branchsim/internal/core"
	"branchsim/internal/predictor"
	"branchsim/internal/profile"
	"branchsim/internal/sim"
	"branchsim/internal/workload"
)

// runSynth drives a predictor over the synthetic workload.
func runSynth(t *testing.T, p predictor.Predictor, input string) sim.Metrics {
	t.Helper()
	prog, err := workload.Get("synth")
	if err != nil {
		t.Fatal(err)
	}
	r := sim.NewRunner(p, sim.WithCollisions(), sim.WithLabels("synth", input))
	if err := prog.Run(context.Background(), input, r); err != nil {
		t.Fatal(err)
	}
	return r.Metrics()
}

// The synthetic stream is 1/5 random and 1/5 leader (both ~50% coin flips),
// so ~40% of branches are unpredictable in principle and the best possible
// accuracy is ~80%. The remaining classes separate the schemes.
func TestPredictorClassSeparation(t *testing.T) {
	// the train input is long enough (1M events) for the history tables
	// to warm up past cold-start noise
	bimodal := runSynth(t, predictor.NewBimodal(8<<10), workload.InputTrain)
	ghist := runSynth(t, predictor.NewGHist(8<<10), workload.InputTrain)
	gshare := runSynth(t, predictor.NewGShare(8<<10), workload.InputTrain)
	skew := runSynth(t, predictor.NewTwoBcGskew(8<<10), workload.InputTrain)

	// bimodal cannot see the correlated class (follows the leader) and
	// loses ~half of it; global-history schemes capture it
	if ghist.Accuracy() <= bimodal.Accuracy() {
		t.Errorf("ghist (%.3f) did not beat bimodal (%.3f) on a correlated stream",
			ghist.Accuracy(), bimodal.Accuracy())
	}
	if gshare.Accuracy() <= bimodal.Accuracy() {
		t.Errorf("gshare (%.3f) did not beat bimodal (%.3f)", gshare.Accuracy(), bimodal.Accuracy())
	}
	// nobody beats the entropy floor
	for _, m := range []sim.Metrics{bimodal, ghist, gshare, skew} {
		if m.Accuracy() > 0.93 {
			t.Errorf("%s accuracy %.3f exceeds the stream's entropy budget", m.Predictor, m.Accuracy())
		}
		if m.Accuracy() < 0.45 {
			t.Errorf("%s accuracy %.3f is worse than guessing", m.Predictor, m.Accuracy())
		}
	}
}

// Static_95 on the synthetic stream must select (a superset of) the biased
// class and leave the random class dynamic.
func TestStatic95OnSynthStream(t *testing.T) {
	prog, _ := workload.Get("synth")
	db := profile.NewDB("synth", "test")
	p := predictor.NewGShare(4 << 10)
	r := sim.NewRunner(p, sim.WithProfile(db), sim.WithCollisions())
	if err := prog.Run(context.Background(), workload.InputTest, r); err != nil {
		t.Fatal(err)
	}
	r.Metrics()

	hints, err := core.Static95{}.Select(db)
	if err != nil {
		t.Fatal(err)
	}
	if hints.Len() == 0 {
		t.Fatalf("no hints from a stream with a 0.97-bias class")
	}
	// every hinted branch must really be biased in the profile
	for _, h := range hints.Hints() {
		if b := db.Get(h.PC); b.Bias() <= 0.95 {
			t.Fatalf("hinted branch %#x has bias %.3f", h.PC, b.Bias())
		}
	}

	// and the combined predictor must not be worse than the baseline
	base := runSynth(t, predictor.NewGShare(4<<10), workload.InputTest)
	comb := runSynth(t, core.NewCombined(predictor.NewGShare(4<<10), hints, core.NoShift), workload.InputTest)
	if comb.Mispredicts > base.Mispredicts+base.Mispredicts/10 {
		t.Errorf("static95 degraded the synthetic stream: %d -> %d mispredicts",
			base.Mispredicts, comb.Mispredicts)
	}
}

// Collision accounting must be exact: constructive + destructive = total,
// and hinted branches must reduce total collisions on a pressured table.
func TestCollisionAccountingConsistent(t *testing.T) {
	// bimodal needs a table smaller than the site count to alias (synth's
	// sequential site addresses spread perfectly); history-indexed schemes
	// alias through history even with spare entries
	for _, spec := range []string{"bimodal:8B", "gshare:256B", "2bcgskew:256B", "bimode:256B"} {
		p := predictor.MustNew(spec)
		m := runSynth(t, p, workload.InputTest)
		if m.Collisions.Constructive+m.Collisions.Destructive != m.Collisions.Total {
			t.Errorf("%s: collision classes don't sum: %+v", spec, m.Collisions)
		}
		if m.Collisions.Total == 0 {
			t.Errorf("%s: this configuration must alias", spec)
		}
		if m.Collisions.Total > m.Branches {
			t.Errorf("%s: more collisions than branches", spec)
		}
	}
}

// Mispredicts must equal the sum of per-branch (exec - correct) when
// profiling, tying the two accounting paths together.
func TestProfileAndMetricsAgree(t *testing.T) {
	prog, _ := workload.Get("compress")
	db := profile.NewDB("compress", "test")
	r := sim.NewRunner(predictor.NewBimodal(1<<10), sim.WithProfile(db))
	if err := prog.Run(context.Background(), workload.InputTest, r); err != nil {
		t.Fatal(err)
	}
	m := r.Metrics()
	var miss uint64
	for _, b := range db.Branches() {
		miss += b.Exec - b.Correct
	}
	if miss != m.Mispredicts {
		t.Fatalf("profile says %d mispredicts, metrics say %d", miss, m.Mispredicts)
	}
	if db.DynamicBranches() != m.Branches {
		t.Fatalf("profile says %d branches, metrics say %d", db.DynamicBranches(), m.Branches)
	}
}

// TestLiRunsAreDeterministic runs li twice over: its interpreter defines
// builtins and marks globals in a fixed order, so every run yields the same
// branch stream and with it the same metrics, collisions included.
func TestLiRunsAreDeterministic(t *testing.T) {
	prog, err := workload.Get("li")
	if err != nil {
		t.Fatal(err)
	}
	run := func() sim.Metrics {
		r := sim.NewRunner(predictor.NewGShare(8<<10), sim.WithCollisions(), sim.WithLabels("li", workload.InputTest))
		if err := prog.Run(context.Background(), workload.InputTest, r); err != nil {
			t.Fatal(err)
		}
		return r.Metrics()
	}
	want := run()
	for i := 0; i < 3; i++ {
		if d := want.Diff(run()); d != "" {
			t.Fatalf("run %d differs from the first: %s", i+2, d)
		}
	}
}
