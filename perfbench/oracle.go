package main

import (
	"context"
	"fmt"

	"branchsim/internal/core"
	"branchsim/internal/predictor"
	"branchsim/internal/profile"
	"branchsim/internal/replay"
	"branchsim/internal/sim"
	"branchsim/internal/trace"
)

// unstable lists the program workloads whose branch stream is not the same
// on every execution. li ranges over Go maps when it defines its builtins
// and when its collector marks the globals, so the layout of its cells and
// the order its collector visits them in change from one execution to the
// next. The stream's counts (instructions, branches, taken branches) stay
// the same; the outcome order of the collector's branches, and with it
// every predictor's mispredicts and collisions, does not, so those cannot
// be held to frozen values. An arm of an unstable workload is checked in
// two parts instead: its counts against expected.jsonl when it is
// delivered, and all of its metrics against oracle() over the very stream
// the harness captured, once the harness's arms are done.
var unstable = map[string]bool{"li": true}

// delivered is one arm result of an unstable workload that passed the
// count check and waits for the oracle check.
type delivered struct {
	a arm
	m sim.Metrics
}

// feedFunc replays one captured branch stream into rec.
type feedFunc func(rec trace.Recorder) error

// engineFeeds returns the feeds of the captures eng holds, one per program
// workload, on the benchmark's input.
func engineFeeds(ctx context.Context, eng *replay.Engine) func(wl string) (feedFunc, error) {
	return func(wl string) (feedFunc, error) {
		if eng == nil {
			return nil, fmt.Errorf("%s: no replay engine holds its capture", wl)
		}
		t, ok := eng.Trace(replay.Key(wl, input))
		if !ok {
			return nil, fmt.Errorf("%s: the replay engine holds no capture of it", wl)
		}
		return func(rec trace.Recorder) error {
			_, err := t.Replay(ctx, rec)
			return err
		}, nil
	}
}

// streamFeeds returns a feed of s for every program workload: the traced
// run's own capture of one job's workload.
func streamFeeds(s *stream) func(wl string) (feedFunc, error) {
	return func(string) (feedFunc, error) {
		return func(rec trace.Recorder) error {
			s.replay(rec)
			return nil
		}, nil
	}
}

// verify checks every arm waiting in t.pending against the oracle over the
// stream feeds returns for its workload, and empties the queue. Each
// distinct arm's oracle runs once; a mismatch or an oracle error fails the
// arm.
func (t *tally) verify(feeds func(wl string) (feedFunc, error)) {
	want := map[arm]sim.Metrics{}
	errs := map[arm]string{}
	for _, d := range t.pending {
		if _, done := want[d.a]; !done && errs[d.a] == "" {
			feed, err := feeds(d.a.Workload)
			if err == nil {
				want[d.a], err = oracle(feed, d.a)
			}
			if err != nil {
				errs[d.a] = fmt.Sprintf("%s: oracle: %v", d.a.key(), err)
			}
		}
		if msg := errs[d.a]; msg != "" {
			t.fail(d.a.Workload, msg)
		} else if diff := want[d.a].Diff(d.m); diff != "" {
			t.fail(d.a.Workload, d.a.key()+": against the oracle over its capture: "+diff)
		}
	}
	t.pending = nil
}

// perBranch hides a recorder's block path, so a replay feeds it one branch
// at a time.
type perBranch struct{ trace.Recorder }

// oracle recomputes arm a, self-trained, from one branch stream. It builds
// the profile and the selection as the harness does (Static_95 from a
// bias-only profile, the other schemes from a profile of the arm's own
// predictor) and runs every pass through the per-branch path, so it shares
// neither the batch kernels nor the harness's plumbing with what it checks.
func oracle(feed feedFunc, a arm) (sim.Metrics, error) {
	var hints *core.HintDB
	if a.Scheme != "none" {
		sel, err := core.SelectorByName(a.Scheme)
		if err != nil {
			return sim.Metrics{}, err
		}
		db := profile.NewDB(a.Workload, input)
		if _, bias := sel.(core.Static95); bias {
			err = feed(perBranch{biasRecorder{db}})
		} else {
			var p predictor.Predictor
			if p, err = predictor.New(a.Pred); err != nil {
				return sim.Metrics{}, err
			}
			run := sim.NewRunner(p, sim.WithLabels(a.Workload, input), sim.WithCollisions(), sim.WithProfile(db))
			err = feed(perBranch{run})
			run.Metrics()
		}
		if err != nil {
			return sim.Metrics{}, err
		}
		if hints, err = sel.Select(db); err != nil {
			return sim.Metrics{}, err
		}
	}
	p, err := predictor.New(a.Pred)
	if err != nil {
		return sim.Metrics{}, err
	}
	run := sim.NewRunner(core.NewCombined(p, hints, core.NoShift), sim.WithLabels(a.Workload, input), sim.WithCollisions())
	if err := feed(perBranch{run}); err != nil {
		return sim.Metrics{}, err
	}
	return run.Metrics(), nil
}
