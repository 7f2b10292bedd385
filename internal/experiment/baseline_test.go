package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"branchsim/internal/obs"
	"branchsim/internal/predictor"
	"branchsim/internal/profile"
	"branchsim/internal/sim"
	"branchsim/internal/workload"
)

// gridSpecs are the twelve predictor schemes of the paper grid: the paper's
// five, five contemporary extensions and the two modern successors, the
// last two of which grade their own predictions.
var gridSpecs = []string{"bimodal:1KB", "ghist:1KB", "gshare:1KB", "bimode:1KB", "2bcgskew:1KB",
	"agree:1KB", "gskew:1KB", "yags:1KB", "local:1KB", "mcfarling:1KB", "tage:1KB", "perceptron:1KB"}

// directProfile is the phase-1 profile of spec over wl/input the way the
// paper defines it: one profiled run of the bare predictor, fed by direct
// execution, with collision tracking.
func directProfile(wl, input, spec string) (*profile.DB, error) {
	prog, err := workload.Get(wl)
	if err != nil {
		return nil, err
	}
	p, err := predictor.New(spec)
	if err != nil {
		return nil, err
	}
	db := profile.NewDB(wl, input)
	r := sim.NewRunner(p, sim.WithCollisions(), sim.WithProfile(db))
	if err := workload.RunProgram(context.Background(), prog, input, r); err != nil {
		return nil, err
	}
	r.Metrics()
	return db, nil
}

// TestProfileFromBaselineEquivalence checks that a predictor's profile,
// built from the bias profile and the none arm's baseline pass, is the
// profile a profiled run of the bare predictor collects: for every grid
// spec on three workloads, self-trained and cross-trained, every per-branch
// field, the instruction total, the predictor label and the saved bytes.
// Under the race detector the cross-trained half, over train streams 10-30x
// the length of the test streams, is left to the race-free runs (CI runs
// every Equivalence test twice without it): the self-trained half already
// drives the shared passes from concurrent arms.
func TestProfileFromBaselineEquivalence(t *testing.T) {
	ctx := context.Background()
	inputs := []string{workload.InputTest, workload.InputTrain}
	if raceEnabled {
		inputs = inputs[:1]
	}
	h := testHarness(WithWorkers(4))
	defer h.Close()
	type tc struct{ wl, spec string }
	var cases []tc
	for _, wl := range []string{"compress", "ijpeg", "li"} {
		for _, spec := range gridSpecs {
			cases = append(cases, tc{wl, spec})
		}
	}
	var wg sync.WaitGroup
	work := make(chan tc)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range work {
				// Self-trained: the none arm runs first, so the profile
				// reuses its pass. Cross-trained: the arm's profile input
				// has no none arm, so the profile runs the baseline itself.
				if _, err := h.Run(ctx, Arm{Workload: c.wl, Pred: c.spec, Scheme: "none"}); err != nil {
					t.Error(err)
					continue
				}
				for _, input := range inputs {
					if input != workload.InputTest {
						cross := Arm{Workload: c.wl, Pred: c.spec, Scheme: "staticacc", ProfileInput: input}
						if _, err := h.Hints(ctx, cross); err != nil {
							t.Error(err)
							continue
						}
					}
					got, err := h.Profile(ctx, c.wl, input, c.spec)
					if err != nil {
						t.Error(err)
						continue
					}
					want, err := directProfile(c.wl, input, c.spec)
					if err != nil {
						t.Error(err)
						continue
					}
					if d := profileDiff(want, got); d != "" {
						t.Errorf("%s/%s %s: %s", c.wl, input, c.spec, d)
					}
				}
			}
		}()
	}
	for _, c := range cases {
		work <- c
	}
	close(work)
	wg.Wait()
}

// profileDiff describes the first way got differs from want, or "".
func profileDiff(want, got *profile.DB) string {
	if got.Workload != want.Workload || got.Input != want.Input || got.Predictor != want.Predictor || got.Instructions != want.Instructions {
		return "header " + fmtJSON(got.Workload, got.Input, got.Predictor, got.Instructions) + ", want " + fmtJSON(want.Workload, want.Input, want.Predictor, want.Instructions)
	}
	wb, gb := want.Branches(), got.Branches()
	if len(wb) != len(gb) {
		return fmtJSON("branches", len(gb), "want", len(wb))
	}
	for i := range wb {
		if *gb[i] != *wb[i] {
			return "branch " + fmtJSON(*gb[i]) + ", want " + fmtJSON(*wb[i])
		}
	}
	var w, g bytes.Buffer
	if err := want.Save(&w); err != nil {
		return err.Error()
	}
	if err := got.Save(&g); err != nil {
		return err.Error()
	}
	if !bytes.Equal(w.Bytes(), g.Bytes()) {
		return "saved bytes differ"
	}
	return ""
}

func fmtJSON(v ...any) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// TestBaselineSharedInAnyOrder checks that the none arm and the profile
// that shares its pass give the same journal and counters whichever asks
// first, or both at once: every requested key gets one arm record with the
// same kind, labels, source, events and metrics, and a pass run on the
// profile's behalf is neither counted nor journaled as a run.
func TestBaselineSharedInAnyOrder(t *testing.T) {
	ctx := context.Background()
	var arms []Arm
	for _, spec := range []string{"gshare:1KB", "tage:1KB"} {
		arms = append(arms, Arm{Workload: "compress", Pred: spec, Scheme: "none"},
			Arm{Workload: "compress", Pred: spec, Scheme: "staticacc"})
	}
	sweep := func(workers int, order string) ([]obs.ArmRecord, Stats, []sim.Metrics) {
		var buf bytes.Buffer
		sink := obs.New(obs.WithJournal(obs.NewJournal(&buf)))
		h := testHarness(WithWorkers(workers), WithObserver(sink))
		ms := make([]sim.Metrics, len(arms))
		run := func(i int) {
			m, err := h.Run(ctx, arms[i])
			if err != nil {
				t.Errorf("%s: %v", order, err)
			}
			ms[i] = m
		}
		switch order {
		case "none first":
			for i := range arms {
				run(i)
			}
		case "staticacc first":
			for i := len(arms) - 1; i >= 0; i-- {
				run(i)
			}
		case "concurrent":
			var wg sync.WaitGroup
			for i := range arms {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					run(i)
				}(i)
			}
			wg.Wait()
		}
		h.Close()
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		recs, err := obs.ReadRecords(&buf)
		if err != nil {
			t.Fatal(err)
		}
		out := recs.Arms
		for i := range out {
			r := &out[i]
			r.Time, r.Phases, r.WallNanos, r.EventsPerSec = time.Time{}, nil, 0, 0
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
		return out, h.Stats(), ms
	}

	wantRecs, wantStats, wantMetrics := sweep(1, "none first")
	// Two runs and one profile per spec, plus the static filter's run.
	if len(wantRecs) != 6 || wantStats != (Stats{RunsComputed: 4, ProfilesComputed: 2}) {
		t.Fatalf("none first: %d arm records, stats %+v; want 6 records, 4 runs and 2 profiles computed", len(wantRecs), wantStats)
	}
	for _, workers := range []int{1, 8} {
		for _, order := range []string{"none first", "staticacc first", "concurrent"} {
			recs, stats, ms := sweep(workers, order)
			if stats != wantStats {
				t.Errorf("workers=%d %s: stats %+v, want %+v", workers, order, stats, wantStats)
			}
			if !reflect.DeepEqual(recs, wantRecs) {
				t.Errorf("workers=%d %s: arm records differ:\n got %s\nwant %s", workers, order, fmtJSON(recs), fmtJSON(wantRecs))
			}
			for i := range arms {
				if d := wantMetrics[i].Diff(ms[i]); d != "" {
					t.Errorf("workers=%d %s: %+v: %s", workers, order, arms[i], d)
				}
			}
		}
	}
}

// FuzzCheckpointLookup stores arbitrary bytes as a checkpoint record, of a
// run or of a profile, and looks the key up: the loader must report a miss
// or return a value that saves back and reads again unchanged, and never
// panic.
func FuzzCheckpointLookup(f *testing.F) {
	const runKey, profKey = "r|compress|test|gshare:1KB|none||0|0|test", "p|compress|test|gshare:1KB"
	seedDir := f.TempDir()
	ck, err := OpenCheckpoint(seedDir)
	if err != nil {
		f.Fatal(err)
	}
	m := sim.Metrics{Predictor: "gshare:1KB+none", Workload: "compress", Input: "test", Mispredicts: 7, CollisionsTracked: true}
	m.Instructions, m.Branches, m.TakenCount = 100, 20, 11
	m.Collisions = sim.Collisions{Total: 5, Constructive: 3, Destructive: 2}
	db := profile.NewDB("compress", "test")
	db.Predictor = "gshare:1KB"
	db.RecordPredicted(0x40, true, true)
	db.RecordPredicted(0x40, false, false)
	db.RecordDestructiveCollision(0x40)
	db.RecordLowConfidence(0x44)
	db.Instructions = 9
	if err := ck.SaveRun(runKey, m); err != nil {
		f.Fatal(err)
	}
	if err := ck.SaveProfile(profKey, db); err != nil {
		f.Fatal(err)
	}
	for _, seed := range []struct {
		sub, key string
	}{{"runs", runKey}, {"profiles", profKey}} {
		data, err := os.ReadFile(ck.path(seed.sub, seed.key))
		if err != nil {
			f.Fatal(err)
		}
		prof := seed.sub == "profiles"
		f.Add(data, prof)
		f.Add(data[:len(data)/2], prof)
		f.Add(bytes.Replace(data, []byte(seed.key), []byte("x"), 1), prof)
	}
	f.Add([]byte(`{"key":"`+profKey+`","profile":null}`), true)
	f.Add([]byte(`{"key":"`+profKey+`","profile":{"version":1,"branches":[null]}}`), true)
	f.Add([]byte(`{"key":"`+profKey+`","profile":{"version":1,"branches":[{"pc":1,"exec":1,"correct":2}]}}`), true)
	f.Add([]byte(`{"key":"`+runKey+`","metrics":{"Branches":-1}}`), false)
	f.Add([]byte{}, false)

	f.Fuzz(func(t *testing.T, data []byte, prof bool) {
		ck, err := OpenCheckpoint(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		sub, key := "runs", runKey
		if prof {
			sub, key = "profiles", profKey
		}
		if err := os.WriteFile(ck.path(sub, key), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if !prof {
			m, ok := ck.LookupRun(key)
			if !ok {
				return
			}
			if err := ck.SaveRun(key, m); err != nil {
				t.Fatal(err)
			}
			if again, ok := ck.LookupRun(key); !ok || again != m {
				t.Fatalf("run record does not read back: %+v (ok %v), want %+v", again, ok, m)
			}
			return
		}
		db, ok := ck.LookupProfile(key)
		if !ok {
			return
		}
		if err := db.Validate(); err != nil {
			t.Fatalf("lookup returned an inconsistent profile: %v", err)
		}
		var first bytes.Buffer
		if err := db.Save(&first); err != nil {
			t.Fatal(err)
		}
		if err := ck.SaveProfile(key, db); err != nil {
			t.Fatal(err)
		}
		again, ok := ck.LookupProfile(key)
		if !ok {
			t.Fatal("saved profile does not read back")
		}
		var second bytes.Buffer
		if err := again.Save(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("profile record does not save back consistently:\n%s\nthen\n%s", first.Bytes(), second.Bytes())
		}
	})
}
