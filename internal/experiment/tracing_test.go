package experiment

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"
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
