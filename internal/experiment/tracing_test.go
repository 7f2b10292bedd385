package experiment

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"branchsim/internal/obs"
)

// armShape reduces a journal's arm records to their deterministic identity —
// kind, key, provenance, event count, outcome — dropping wall-clock fields
// that legitimately differ between runs. Sorted, so concurrent interleaving
// does not matter.
func armShape(recs *obs.Records) string {
	var out []string
	for i := range recs.Arms {
		a := &recs.Arms[i]
		out = append(out, fmt.Sprintf("%s|%s|%s|%d|%s", a.Kind, a.Key, a.Source, a.Events, a.Error))
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}

// TestJournalByteStableWithTracing is the tracing byte-identity acceptance
// test: running the same sweep with tracing enabled (plus a slow-arm
// threshold low enough that every arm records an exemplar) must leave the
// journal indistinguishable from a tracing-off run — span frames are
// live-only, and the journaled record stream is unchanged byte for byte.
// Checked at workers=1 (sequential) and workers=8 (concurrent arms sharing
// one capture, so the cross-link registry is exercised too).
func TestJournalByteStableWithTracing(t *testing.T) {
	traced := []obs.Option{obs.WithTracing(), obs.WithSlowArm(time.Nanosecond)}

	// A bus tap proves tracing was actually live during the traced sweeps:
	// span frames must flow on the bus even though none may hit the journal.
	var spanFrames atomic.Uint64
	tapSpans := func(o *obs.Observer) func() {
		sub := o.Subscribe(1024)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for line := range sub.C() {
				if bytes.Contains(line, []byte(`"type":"span"`)) {
					spanFrames.Add(1)
				}
			}
		}()
		return func() { sub.Close(); <-done }
	}

	recsOff1, rawOff1 := telemetrySweep(t, 1, false)
	recsOn1, rawOn1 := telemetrySweepObs(t, 1, false, traced, tapSpans)
	recsOff8, rawOff8 := telemetrySweep(t, 8, true)
	recsOn8, rawOn8 := telemetrySweepObs(t, 8, true, traced, nil)

	if spanFrames.Load() == 0 {
		t.Error("traced sweep published no span frames; tracing never engaged")
	}

	// No span frame may ever reach a journal.
	for label, raw := range map[string][]byte{"workers=1": rawOn1, "workers=8": rawOn8} {
		if bytes.Contains(raw, []byte(`"type":"span"`)) {
			t.Errorf("span frame leaked into the traced journal (%s)", label)
		}
	}

	// Per-arm telemetry streams: byte-for-byte identical tracing off vs on
	// at workers=1, where emission order is fully deterministic.
	names := map[string]bool{}
	for i := range recsOff1.Intervals {
		names[recsOff1.Intervals[i].Predictor] = true
	}
	if len(names) != len(FivePredictors) {
		t.Fatalf("tracing-off sweep journaled %d arms' telemetry, want %d", len(names), len(FivePredictors))
	}
	for name := range names {
		off := strings.Join(telemetryLines(rawOff1, name), "\n")
		on := strings.Join(telemetryLines(rawOn1, name), "\n")
		if off == "" {
			t.Fatalf("%s: no telemetry lines in the tracing-off journal", name)
		}
		if off != on {
			t.Errorf("%s: journaled telemetry differs with tracing on:\noff:\n%s\non:\n%s", name, off, on)
		}
	}

	// The full telemetry record set is identical across all four journals
	// (only cross-arm interleaving may differ under concurrency).
	collect := func(raw []byte) string {
		var all []string
		for name := range names {
			all = append(all, telemetryLines(raw, name)...)
		}
		sort.Strings(all)
		return strings.Join(all, "\n")
	}
	base := collect(rawOff1)
	for label, raw := range map[string][]byte{
		"workers=1 traced": rawOn1, "workers=8": rawOff8, "workers=8 traced": rawOn8,
	} {
		if collect(raw) != base {
			t.Errorf("telemetry record set differs between the golden run and %s", label)
		}
	}

	// Arm records: identical identity, provenance and event counts.
	baseShape := armShape(recsOff1)
	for label, recs := range map[string]*obs.Records{
		"workers=1 traced": recsOn1, "workers=8": recsOff8, "workers=8 traced": recsOn8,
	} {
		if got := armShape(recs); got != baseShape {
			t.Errorf("arm records differ between the golden run and %s:\ngolden:\n%s\n%s:\n%s",
				label, baseShape, label, got)
		}
	}
}

// pairedWallRatio times bare and treated in rounds of four back-to-back
// runs, after one warm-up run of each, and returns the median over the
// rounds of treated wall time over bare wall time, with the median wall
// time of one run of each side. It stops after overheadRounds rounds, or
// at the first round end past overheadBudget. Even rounds run bare,
// treated, treated, bare; odd rounds the mirror, so neither side always
// runs first or inherits the other's garbage. Rounds last a few tens of
// milliseconds, so a burst of load from another process lands on both
// sides of the rounds it hits rather than on one side of the measurement,
// and the median discards those rounds. Runs keep the test's GOMAXPROCS
// and are timed on the wall clock: waiting and cross-core contention count
// as overhead.
func pairedWallRatio(bare, treated func()) (ratio float64, bareRun, treatedRun time.Duration) {
	timed := func(f func()) time.Duration {
		t0 := time.Now()
		f()
		return time.Since(t0)
	}
	bare()
	treated()
	var ratios []float64
	var bares, treateds []time.Duration
	start := time.Now()
	for i := 0; i < overheadRounds && (i == 0 || time.Since(start) < overheadBudget); i++ {
		var b1, b2, t1, t2 time.Duration
		if i%2 == 0 {
			b1 = timed(bare)
			t1 = timed(treated)
			t2 = timed(treated)
			b2 = timed(bare)
		} else {
			t1 = timed(treated)
			b1 = timed(bare)
			b2 = timed(bare)
			t2 = timed(treated)
		}
		ratios = append(ratios, float64(t1+t2)/float64(b1+b2))
		bares = append(bares, b1, b2)
		treateds = append(treateds, t1, t2)
	}
	sort.Float64s(ratios)
	sort.Slice(bares, func(i, j int) bool { return bares[i] < bares[j] })
	sort.Slice(treateds, func(i, j int) bool { return treateds[i] < treateds[j] })
	n := len(ratios)
	return ratios[n/2], bares[n], treateds[n]
}

// overheadRounds is how many rounds an overhead guard times; a round runs
// each side twice, so at about ten milliseconds per quick arm a guard takes
// about twelve seconds. Under load, fewer rounds let the median wander past
// a 1.05x bound. overheadBudget cuts the rounds short where arms run far
// slower, as under the race detector.
const (
	overheadRounds = 300
	overheadBudget = 30 * time.Second
)

// TestTracingOverheadGuard asserts the zero-cost-when-off contract at sweep
// granularity: a replay sweep through a harness whose observer has tracing
// disabled (the default) must not be measurably slower than the same sweep
// with no observer at all. Every tracing call site on the arm path — span
// starts, phase mirrors, key notes, the latency histograms — degrades to a
// nil check or a single atomic add when tracing is off, so the bound is
// tight; pairedWallRatio keeps shared-machine timing noise out of it.
func TestTracingOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard skipped in -short")
	}
	arm := Arm{Workload: "compress", Input: "test", Pred: "gshare:1KB", Scheme: "none"}
	drive := func(newObs func() *obs.Observer) func() {
		return func() {
			// A fresh harness per run: memoization would otherwise
			// collapse every later run to a cache hit.
			o := newObs()
			h := NewQuickHarness(WithObserver(o), WithWorkers(2))
			if _, err := h.Run(context.Background(), arm); err != nil {
				t.Fatal(err)
			}
			h.Close()
			if o != nil {
				if err := o.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	ratio, bare, disabled := pairedWallRatio(
		drive(func() *obs.Observer { return nil }),
		drive(func() *obs.Observer { return obs.New() }))
	t.Logf("disabled-tracing/bare: %.3fx (%v vs %v per arm)", ratio, disabled, bare)
	if ratio > 1.05 {
		t.Errorf("disabled-tracing sweep is %.3fx the observer-free sweep (%v vs %v per arm); want <= 1.05x",
			ratio, disabled, bare)
	}
}

// TestArmPhaseViewsAgree checks the three views that Span.End derives from
// an arm's one phase list: the journal's ArmRecord.Phases, the arm's live
// span frame and the experiment.phase.* histograms. A staticacc grid with
// a checkpoint directory gives profile arms their bias, baseline and
// checkpoint phases, and run arms their select, stream, seal and
// checkpoint phases. Checked sequentially and with eight arms at once.
func TestArmPhaseViewsAgree(t *testing.T) {
	hists := map[obs.Phase]string{
		obs.PhaseCapture: obs.MPhaseCapture, obs.PhaseReplay: obs.MPhaseReplay,
		obs.PhaseSimulate: obs.MPhaseSimulate, obs.PhaseSelect: obs.MPhaseSelect,
		obs.PhaseCheckpoint: obs.MPhaseCheckpoint, obs.PhaseSeal: obs.MPhaseSeal,
	}
	var arms []Arm
	for _, wl := range []string{"compress", "li"} {
		for _, pred := range []string{"gshare:1KB", "bimodal:1KB"} {
			for _, scheme := range []string{"none", "staticacc"} {
				arms = append(arms, Arm{Workload: wl, Pred: pred, Scheme: scheme})
			}
		}
	}
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ck, err := OpenCheckpoint(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			sink := obs.New(obs.WithJournal(obs.NewJournal(&buf)), obs.WithTracing())
			sub := sink.Subscribe(1 << 14)
			var frames []*obs.SpanRecord
			drained := make(chan struct{})
			go func() {
				defer close(drained)
				for line := range sub.C() {
					if rec, err := obs.DecodeRecord(line); err == nil {
						if s, ok := rec.(*obs.SpanRecord); ok {
							frames = append(frames, s)
						}
					}
				}
			}()
			h := NewQuickHarness(WithObserver(sink), WithWorkers(workers), WithCheckpoint(ck))
			errs := make([]error, len(arms))
			var wg sync.WaitGroup
			for i, a := range arms {
				run := func(i int, a Arm) {
					defer wg.Done()
					_, errs[i] = h.Run(context.Background(), a)
				}
				wg.Add(1)
				if workers == 1 {
					run(i, a)
				} else {
					go run(i, a)
				}
			}
			wg.Wait()
			h.Close()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := sink.Close(); err != nil {
				t.Fatal(err)
			}
			<-drained
			if n := sink.Counter(obs.MBusDropped).Value(); n != 0 {
				t.Fatalf("bus dropped %d frames; the span views cannot be compared", n)
			}
			recs, err := obs.ReadRecords(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}

			frameOf := map[string]*obs.SpanRecord{}
			for _, f := range frames {
				if f.Name == "run" || f.Name == "profile" {
					if frameOf[f.Name+"|"+f.Key] != nil {
						t.Fatalf("two %s frames for key %s", f.Name, f.Key)
					}
					frameOf[f.Name+"|"+f.Key] = f
				}
			}
			wantCount := map[string]uint64{}
			wantSum := map[string]int64{}
			seen := map[obs.Phase]bool{}
			kinds := map[string]int{}
			for i := range recs.Arms {
				a := &recs.Arms[i]
				kinds[a.Kind]++
				f := frameOf[a.Kind+"|"+a.Key]
				if f == nil {
					t.Fatalf("arm %s %s has no span frame", a.Kind, a.Key)
				}
				if len(a.Phases) == 0 || len(a.Phases) != len(f.Phases) {
					t.Fatalf("arm %s: journal has %d phases, frame %d:\n%+v\n%+v", a.Key, len(a.Phases), len(f.Phases), a.Phases, f.Phases)
				}
				for j, p := range a.Phases {
					if p.Phase != f.Phases[j].Phase || p.Nanos != f.Phases[j].DurNanos {
						t.Errorf("arm %s phase %d: journal %s %dns, frame %s %dns",
							a.Key, j, p.Phase, p.Nanos, f.Phases[j].Phase, f.Phases[j].DurNanos)
					}
					if p.Phase == obs.PhaseQueue {
						t.Errorf("arm %s journaled a %s phase", a.Key, p.Phase)
					}
					seen[p.Phase] = true
					wantCount[hists[p.Phase]]++
					wantSum[hists[p.Phase]] += p.Nanos
				}
			}
			if kinds["run"] != len(arms) || kinds["profile"] == 0 {
				t.Fatalf("journal arm kinds = %v, want %d runs and the profile arms", kinds, len(arms))
			}
			for _, p := range []obs.Phase{obs.PhaseCapture, obs.PhaseReplay, obs.PhaseSelect, obs.PhaseCheckpoint, obs.PhaseSeal} {
				if !seen[p] {
					t.Errorf("no arm recorded a %s phase", p)
				}
			}
			for _, name := range hists {
				hist := sink.Histogram(name)
				if hist.Count() != wantCount[name] || int64(hist.Sum()) != wantSum[name] {
					t.Errorf("%s: count %d sum %dns, journal phases total %d and %dns",
						name, hist.Count(), int64(hist.Sum()), wantCount[name], wantSum[name])
				}
			}
		})
	}
}
