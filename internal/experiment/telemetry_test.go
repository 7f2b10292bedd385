package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"branchsim/internal/dashboard"
	"branchsim/internal/obs"
	"branchsim/internal/telemetry"
)

// telemetrySweep runs the five paper predictors over compress/test through a
// telemetry-enabled harness with the given replay worker count and returns
// the parsed journal plus the raw journal bytes. workers 0 attaches no
// replay engine: each arm executes the workload directly, per event.
func telemetrySweep(t *testing.T, workers int, concurrent bool, opts ...HarnessOption) (*obs.Records, []byte) {
	return telemetrySweepWith(t, workers, concurrent, nil, opts...)
}

// telemetrySweepWith is telemetrySweep with a tap hook: tap runs against the
// observer before the sweep starts (to attach dashboards, subscribers, …) and
// its returned stop func runs after the journal is sealed. Extra harness
// options append after the defaults.
func telemetrySweepWith(t *testing.T, workers int, concurrent bool, tap func(sink *obs.Observer) (stop func()), opts ...HarnessOption) (*obs.Records, []byte) {
	return telemetrySweepObs(t, workers, concurrent, nil, tap, opts...)
}

// telemetrySweepObs is the full-parameter variant: extra observer options
// (obs.WithTracing, …) append after the journal, so tracing tests can run
// the identical sweep against a tracing-enabled observer.
func telemetrySweepObs(t *testing.T, workers int, concurrent bool, obsOpts []obs.Option, tap func(sink *obs.Observer) (stop func()), opts ...HarnessOption) (*obs.Records, []byte) {
	t.Helper()
	var buf bytes.Buffer
	sink := obs.New(append([]obs.Option{obs.WithJournal(obs.NewJournal(&buf))}, obsOpts...)...)
	if tap != nil {
		defer tap(sink)()
	}
	hopts := []HarnessOption{
		WithObserver(sink),
		WithTelemetry(telemetry.Config{Interval: 50_000, TableStats: true, TopK: 8}),
	}
	if workers > 0 {
		hopts = append(hopts, WithWorkers(workers))
	}
	h := NewQuickHarness(append(hopts, opts...)...)
	defer h.Close()
	ctx := context.Background()

	runArm := func(pred string) error {
		_, err := h.Run(ctx, Arm{Workload: "compress", Input: "test", Pred: pred + ":1KB", Scheme: "none"})
		return err
	}
	if concurrent {
		var wg sync.WaitGroup
		errs := make([]error, len(FivePredictors))
		for i, pred := range FivePredictors {
			wg.Add(1)
			go func(i int, pred string) {
				defer wg.Done()
				errs[i] = runArm(pred)
			}(i, pred)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	} else {
		for _, pred := range FivePredictors {
			if err := runArm(pred); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	raw := append([]byte(nil), buf.Bytes()...)
	recs, err := obs.ReadRecords(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return recs, raw
}

// TestTelemetrySmokeSweep is the acceptance smoke test: a sweep over all five
// paper predictors with full telemetry produces parseable interval,
// table-stats and top-K records for every arm, and each arm's totals
// reconstructed from its interval deltas equal its sim.Metrics exactly.
func TestTelemetrySmokeSweep(t *testing.T) {
	var buf bytes.Buffer
	sink := obs.New(obs.WithJournal(obs.NewJournal(&buf)))
	h := NewQuickHarness(
		WithObserver(sink),
		WithWorkers(2),
		WithTelemetry(telemetry.Config{Interval: 50_000, TableStats: true, TopK: 8}),
	)
	defer h.Close()
	ctx := context.Background()

	type totals struct {
		instr, branches, taken, misp     uint64
		collisions, constructive, destr  uint64
		intervals, tableSamples, topKCnt int
	}
	want := map[string]totals{}
	for _, pred := range FivePredictors {
		m, err := h.Run(ctx, Arm{Workload: "compress", Input: "test", Pred: pred + ":1KB", Scheme: "none"})
		if err != nil {
			t.Fatal(err)
		}
		want[m.Predictor] = totals{
			instr: m.Instructions, branches: m.Branches, taken: m.TakenCount, misp: m.Mispredicts,
			collisions: m.Collisions.Total, constructive: m.Collisions.Constructive, destr: m.Collisions.Destructive,
		}
		if !m.CollisionsTracked {
			t.Fatalf("%s: harness runs must track collisions", m.Predictor)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := obs.ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]*totals{}
	for pred := range want {
		got[pred] = &totals{}
	}
	for i := range recs.Intervals {
		r := &recs.Intervals[i]
		g := got[r.Predictor]
		if g == nil {
			t.Fatalf("interval record for unknown predictor %q", r.Predictor)
		}
		g.intervals++
		g.instr += r.DInstructions
		g.branches += r.DBranches
		g.taken += r.DTaken
		g.misp += r.DMispredicts
		g.collisions += r.DCollisions
		g.constructive += r.DConstructive
		g.destr += r.DDestructive
		if !r.CollisionsTracked {
			t.Errorf("%s interval %d: collisions_tracked unset", r.Predictor, r.Seq)
		}
	}
	for i := range recs.TableStats {
		got[recs.TableStats[i].Predictor].tableSamples++
	}
	for i := range recs.TopK {
		got[recs.TopK[i].Predictor].topKCnt++
	}

	for pred, w := range want {
		g := got[pred]
		if g.intervals == 0 || g.tableSamples == 0 || g.topKCnt != 1 {
			t.Errorf("%s: %d intervals, %d table samples, %d topk records; want >0, >0, 1",
				pred, g.intervals, g.tableSamples, g.topKCnt)
		}
		if g.instr != w.instr || g.branches != w.branches || g.taken != w.taken || g.misp != w.misp {
			t.Errorf("%s: interval delta sums instr/branches/taken/misp = %d/%d/%d/%d, metrics say %d/%d/%d/%d",
				pred, g.instr, g.branches, g.taken, g.misp, w.instr, w.branches, w.taken, w.misp)
		}
		if g.collisions != w.collisions || g.constructive != w.constructive || g.destr != w.destr {
			t.Errorf("%s: interval collision sums %d/%d/%d, metrics say %d/%d/%d",
				pred, g.collisions, g.constructive, g.destr, w.collisions, w.constructive, w.destr)
		}
	}
}

// telemetryLines extracts the telemetry record lines of one arm from a raw
// journal, preserving emission order.
func telemetryLines(raw []byte, predictor string) []string {
	var out []string
	marker := fmt.Sprintf("%q:%q", "predictor", predictor)
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.Contains(line, marker) {
			continue
		}
		if strings.Contains(line, `"type":"interval"`) ||
			strings.Contains(line, `"type":"table_stats"`) ||
			strings.Contains(line, `"type":"topk"`) {
			out = append(out, line)
		}
	}
	return out
}

// TestTelemetryGoldenByteStable is the golden determinism test: the
// telemetry record stream of a fixed (workload, input, predictor) triple is
// byte-identical across repeated runs, across replay worker counts
// (sequential workers=1 vs concurrent workers=8), and against direct
// execution with no replay engine, where each arm simulates per event, run
// sequentially and concurrently — so neither the block kernels nor replay
// can perturb interval sealing or record order. Telemetry records carry no
// wall-clock fields, so any byte difference is a real nondeterminism bug.
func TestTelemetryGoldenByteStable(t *testing.T) {
	recs1, raw1 := telemetrySweep(t, 1, false)
	_, raw2 := telemetrySweep(t, 1, false)
	_, raw8 := telemetrySweep(t, 8, true)
	_, rawDirect := telemetrySweep(t, 0, false)
	_, rawDirectConc := telemetrySweep(t, 0, true)

	// Arm labels come from the combined predictor's Name(); discover them
	// from the parsed journal rather than hard-coding the format.
	names := map[string]bool{}
	for i := range recs1.Intervals {
		names[recs1.Intervals[i].Predictor] = true
	}
	var triple string
	for name := range names {
		if strings.HasPrefix(name, "gshare") {
			triple = name
		}
	}
	if triple == "" {
		t.Fatalf("no gshare arm among %v", names)
	}

	golden := telemetryLines(raw1, triple)
	if len(golden) == 0 {
		t.Fatal("no telemetry lines for the golden triple")
	}
	if again := telemetryLines(raw2, triple); strings.Join(golden, "\n") != strings.Join(again, "\n") {
		t.Errorf("telemetry stream differs between identical runs:\nrun1:\n%s\nrun2:\n%s",
			strings.Join(golden, "\n"), strings.Join(again, "\n"))
	}
	if conc := telemetryLines(raw8, triple); strings.Join(golden, "\n") != strings.Join(conc, "\n") {
		t.Errorf("telemetry stream differs between workers=1 and workers=8:\nworkers=1:\n%s\nworkers=8:\n%s",
			strings.Join(golden, "\n"), strings.Join(conc, "\n"))
	}
	if d := telemetryLines(rawDirect, triple); strings.Join(golden, "\n") != strings.Join(d, "\n") {
		t.Errorf("telemetry stream differs between replay and direct execution (sequential):\nreplay:\n%s\ndirect:\n%s",
			strings.Join(golden, "\n"), strings.Join(d, "\n"))
	}
	if d := telemetryLines(rawDirectConc, triple); strings.Join(golden, "\n") != strings.Join(d, "\n") {
		t.Errorf("telemetry stream differs between replay and direct execution (concurrent):\nreplay:\n%s\ndirect:\n%s",
			strings.Join(golden, "\n"), strings.Join(d, "\n"))
	}

	// The full telemetry record *set* (all five arms) is also identical —
	// only journal interleaving across arms may differ under concurrency.
	sorted := func(raw []byte) string {
		var all []string
		for name := range names {
			all = append(all, telemetryLines(raw, name)...)
		}
		sort.Strings(all)
		return strings.Join(all, "\n")
	}
	for label, raw := range map[string][]byte{
		"workers=8": raw8, "direct sequential": rawDirect, "direct concurrent": rawDirectConc,
	} {
		if sorted(raw1) != sorted(raw) {
			t.Errorf("telemetry record sets differ between the golden run and %s", label)
		}
	}
}

// TestJournalByteStableWithDashboard extends the golden determinism guarantee
// to the live-dashboard path: attaching the dashboard feeder plus a
// deliberately stalled bus subscriber must leave the journaled telemetry
// stream byte-identical to a dashboard-off run — the bus taps publish copies
// and never touch the buffered journal records — and the stalled subscriber
// must shed frames (counted in bus.dropped) instead of stalling the sweep.
func TestJournalByteStableWithDashboard(t *testing.T) {
	recsOff, rawOff := telemetrySweep(t, 1, false)

	var (
		sink    *obs.Observer
		state   *dashboard.State
		stalled *obs.BusSub
	)
	recsOn, rawOn := telemetrySweepWith(t, 1, false, func(o *obs.Observer) func() {
		sink = o
		var stopFeed func()
		state, stopFeed = dashboard.Attach(o)
		stalled = o.Subscribe(4) // never drained: must drop-oldest, never block
		return stopFeed
	})

	// Same telemetry record set, byte for byte.
	names := map[string]bool{}
	for i := range recsOff.Intervals {
		names[recsOff.Intervals[i].Predictor] = true
	}
	collect := func(raw []byte) string {
		var all []string
		for name := range names {
			all = append(all, telemetryLines(raw, name)...)
		}
		sort.Strings(all)
		return strings.Join(all, "\n")
	}
	off, on := collect(rawOff), collect(rawOn)
	if off == "" {
		t.Fatal("no telemetry lines in the dashboard-off journal")
	}
	if off != on {
		t.Error("journaled telemetry differs between dashboard-off and dashboard-on runs")
	}
	if len(recsOn.Arms) != len(recsOff.Arms) {
		t.Errorf("arm records: %d with dashboard, %d without", len(recsOn.Arms), len(recsOff.Arms))
	}

	// The sweep finished (we are here), the dashboard saw it live, and the
	// stalled subscriber's losses are accounted for.
	snap := state.Snapshot()
	if len(snap.Arms) != len(FivePredictors) || snap.Intervals == 0 {
		t.Errorf("dashboard state: %d arms, %d intervals; want %d arms and >0 intervals",
			len(snap.Arms), snap.Intervals, len(FivePredictors))
	}
	if stalled.Dropped() == 0 {
		t.Error("stalled subscriber dropped nothing; drop-oldest path never exercised")
	}
	if got := sink.Counter(obs.MBusDropped).Value(); got < stalled.Dropped() {
		t.Errorf("%s = %d, below the stalled subscriber's own count %d",
			obs.MBusDropped, got, stalled.Dropped())
	}
}

// TestServeSweepSmoke runs a sweep with the full -serve stack attached —
// event bus, Prometheus exposition, SSE, embedded dashboard — then tears
// everything down and asserts no goroutine outlives the stack.
func TestServeSweepSmoke(t *testing.T) {
	before := runtime.NumGoroutine()

	var buf bytes.Buffer
	sink := obs.New(obs.WithJournal(obs.NewJournal(&buf)))
	state, stopFeed := dashboard.Attach(sink)
	srv, err := sink.Serve("127.0.0.1:0", obs.WithRootHandler(dashboard.Handler(state)))
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.Addr()

	h := NewQuickHarness(WithObserver(sink), WithWorkers(2),
		WithTelemetry(telemetry.Config{Interval: 50_000}))
	ctx := context.Background()
	for _, pred := range []string{"gshare:1KB", "bimodal:1KB"} {
		if _, err := h.Run(ctx, Arm{Workload: "compress", Input: "test", Pred: pred, Scheme: "none"}); err != nil {
			t.Fatal(err)
		}
	}

	// The dashboard is fed from the bus asynchronously; wait for it to catch
	// up, then check every surface answers.
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap := state.Snapshot()
		if len(snap.Arms) == 2 && snap.Intervals > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dashboard never caught up: %+v", snap)
		}
		time.Sleep(5 * time.Millisecond)
	}
	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		return string(body)
	}
	if body := get("/"); !strings.Contains(body, "branchsim dashboard") {
		t.Error("/ is not the embedded dashboard")
	}
	if body := get("/metrics"); !strings.Contains(body, "branchsim_experiment_arms_done 2") {
		t.Errorf("/metrics missing arms_done series:\n%.300s", body)
	}
	var snap dashboard.Snapshot
	if err := json.Unmarshal([]byte(get("/api/state")), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Arms) != 2 {
		t.Errorf("/api/state arms = %d, want 2", len(snap.Arms))
	}

	// Tear down in -serve order and verify nothing leaks.
	h.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	stopFeed()
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	http.DefaultClient.CloseIdleConnections()
	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before serve stack, %d after teardown", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The journal written alongside all of this is intact.
	recs, err := obs.ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs.Arms) != 2 || len(recs.Intervals) == 0 {
		t.Fatalf("journal: %d arms, %d intervals", len(recs.Arms), len(recs.Intervals))
	}
}

// TestHarnessCloseStopsProgressAndFlushes is the leak-and-flush regression
// test for Harness.Close: the progress-reporter goroutine must stop, and the
// journal must be flushed (readable from disk) even though the observer
// itself stays open.
func TestHarnessCloseStopsProgressAndFlushes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := obs.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	sink := obs.New(obs.WithJournal(j))
	defer sink.Close()

	before := runtime.NumGoroutine()
	sink.StartProgress(os.Stderr, time.Hour) // would block flushing for an hour if leaked
	h := NewQuickHarness(WithObserver(sink), WithWorkers(2))
	if _, err := h.Run(context.Background(), Arm{Workload: "compress", Input: "test", Pred: "bimodal:1KB", Scheme: "none"}); err != nil {
		t.Fatal(err)
	}

	h.Close()
	h.Close() // idempotent

	// The progress goroutine must be gone. Give the runtime a moment to
	// retire it before declaring a leak.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before progress, %d after Close", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The journal must be durable on disk after Close, with the observer
	// still open: the arm record is already parseable.
	recs, err := obs.ReadRecordsFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs.Arms) != 1 {
		t.Fatalf("%d arm records flushed, want 1", len(recs.Arms))
	}
}

// TestHarnessTelemetryOffByDefault guards the zero-cost default: a harness
// without WithTelemetry journals no telemetry records.
func TestHarnessTelemetryOffByDefault(t *testing.T) {
	var buf bytes.Buffer
	sink := obs.New(obs.WithJournal(obs.NewJournal(&buf)))
	h := NewQuickHarness(WithObserver(sink), WithWorkers(2))
	defer h.Close()
	if _, err := h.Run(context.Background(), Arm{Workload: "compress", Input: "test", Pred: "gshare:1KB", Scheme: "none"}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs.Intervals)+len(recs.TableStats)+len(recs.TopK) != 0 {
		t.Fatalf("telemetry records journaled without WithTelemetry: %d/%d/%d",
			len(recs.Intervals), len(recs.TableStats), len(recs.TopK))
	}
	if len(recs.Arms) == 0 {
		t.Fatal("arm record missing")
	}
}
