package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"branchsim/internal/experiment"
	"branchsim/internal/replay"
	"branchsim/internal/sim"
	"branchsim/serveapi"
)

// runMainEnv, when set to 1, makes the test binary act as the benchmark
// binary, so a run under test can spawn its --setup-only processes.
const runMainEnv = "PERFBENCH_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// declared reads BENCHMARK.json's metric names and units.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func tinyConfig(t *testing.T, wl string) config {
	t.Helper()
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	return config{workload: wl, seed: 1, seconds: 0.01, scratch: t.TempDir(), setups: 1, maxJobs: 3, sample: 1,
		exp: exp, log: &bytes.Buffer{}}
}

// lastLine decodes the result object the benchmark prints last.
func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return res
}

func sameMetrics(t *testing.T, mode string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("%s: metric %s missing", mode, name)
			continue
		}
		if m.Unit != unit {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json declares %q", mode, name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: metric %s is not declared in BENCHMARK.json", mode, name)
		}
	}
}

// TestTinyPassPrintsDeclaredMetrics runs a tiny pass of every workload,
// untraced and traced, and checks that each prints exactly the metrics
// BENCHMARK.json declares, with their units, after the environment stamp.
func TestTinyPassPrintsDeclaredMetrics(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, wl := range workloads {
		t.Run(wl, func(t *testing.T) {
			cfg := tinyConfig(t, wl)
			var out bytes.Buffer
			res, err := runWorkload(cfg, &out)
			if err != nil {
				t.Fatal(err)
			}
			if res.Attempted == 0 {
				t.Error("no arms attempted")
			}
			sameMetrics(t, "untraced", res.Metrics, endToEnd)
			for name := range endToEnd {
				if !strings.Contains(out.String(), name) {
					t.Errorf("untraced output does not print %s", name)
				}
			}
		})
	}
	cfg := tinyConfig(t, wlPaperGrid)
	var out bytes.Buffer
	res, err := runTraced(cfg, &out, cfg.scratch+"/spans.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	sameMetrics(t, "traced", res.Metrics, perLayer)
}

// TestRunPrintsStampAndResultLast drives the command line: the environment
// stamp comes first, setup_s is the median of the run's own set-up and one
// in a fresh process, and the result object is the last line.
func TestRunPrintsStampAndResultLast(t *testing.T) {
	t.Setenv(runMainEnv, "1")
	var out, errOut bytes.Buffer
	dir := t.TempDir()
	// A tiny serve-mixed run: its timed phase is bounded by --seconds.
	code := run([]string{"--workload", wlServeMixed, "--seed", "3", "--seconds", "0.2", "--setups", "2", "--scratch", dir}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.HasPrefix(out.String(), "env: cpu=") || !strings.Contains(out.String(), "seed=3") {
		t.Errorf("output does not start with the environment stamp:\n%s", out.String())
	}
	if !regexp.MustCompile(`setup_s .* n=2\n`).MatchString(out.String()) {
		t.Errorf("setup_s is not the median of two set-ups:\n%s", out.String())
	}
	lastLine(t, out.String())
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code == 0 {
		t.Error("an unknown workload exited 0")
	}
}

// TestCheckRejectsPerturbedExpected perturbs one expected value at a time
// and requires the check, offline and over the wire, to reject the result.
func TestCheckRejectsPerturbedExpected(t *testing.T) {
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	a := arm{"compress", sized("gshare", gridSize), "staticacc"}
	h := experiment.NewHarness(experiment.WithWorkers(armWorkers))
	defer h.Close()
	m, err := h.Run(context.Background(), harnessArm(a))
	if err != nil {
		t.Fatal(err)
	}
	if msg := exp.check(a, m); msg != "" {
		t.Fatalf("unperturbed check failed: %s", msg)
	}
	wire := wireMetrics(m)
	if msg := exp.checkWire(a, &wire); msg != "" {
		t.Fatalf("unperturbed wire check failed: %s", msg)
	}
	orig := exp[a.key()]
	for name, perturb := range map[string]func(*sim.Metrics){
		"mispredicts":  func(m *sim.Metrics) { m.Mispredicts++ },
		"destructive":  func(m *sim.Metrics) { m.Collisions.Destructive++ },
		"constructive": func(m *sim.Metrics) { m.Collisions.Constructive++ },
		"taken":        func(m *sim.Metrics) { m.TakenCount-- },
	} {
		want := orig
		perturb(&want)
		exp[a.key()] = want
		if exp.check(a, m) == "" {
			t.Errorf("check accepted a result against a perturbed %s", name)
		}
		if exp.checkWire(a, &wire) == "" {
			t.Errorf("wire check accepted a result against a perturbed %s", name)
		}
	}
	exp[a.key()] = orig

	// A mismatch is a failed operation in a workload's count. The timed
	// phase is the first row of the seed's first pass.
	cfg := tinyConfig(t, wlPaperGrid)
	first := rows(cfg.seed, 0, gridSpecs, gridSchemes)[0].arms()[0]
	bad := cfg.exp[first.key()]
	bad.Instructions++
	cfg.exp = copyExpected(cfg.exp)
	cfg.exp[first.key()] = bad
	cfg.maxJobs = 1
	tr, err := runRows(cfg, paperGrid)
	if err != nil {
		t.Fatal(err)
	}
	if tr.failedBy[first.Workload] == 0 || tr.result(nil).Correct {
		t.Errorf("a perturbed expected value for %s did not fail its arm: failed %v", first.key(), tr.failedBy)
	}
}

// TestUnstableArmsMeetTheOracle runs li's row for one spec as the timed
// phase does and requires every arm to pass the count check and the oracle
// check. It then requires the oracle check to reject a delivered result
// with one mispredict or one collision more, and the count check one with
// a branch more.
func TestUnstableArmsMeetTheOracle(t *testing.T) {
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	spec := sized("gshare", gridSize)
	row, _ := runRow(ctx, job{Workloads: []string{"li"}, Preds: []string{spec}, Schemes: gridSchemes}, exp)
	if row.attempted != len(gridSchemes) || row.failed != 0 || len(row.pending) != 0 {
		t.Fatalf("li row: %d of %d arms failed, %d unchecked: %s", row.failed, row.attempted, len(row.pending), row.firstErr)
	}

	eng := replay.New(armWorkers, 0, "")
	defer eng.Close()
	h := experiment.NewHarness(experiment.WithReplay(eng))
	defer h.Close()
	a := arm{"li", spec, "staticacc"}
	m, err := h.Run(ctx, harnessArm(a))
	if err != nil {
		t.Fatal(err)
	}
	checked := func(m sim.Metrics) tally {
		var tl tally
		tl.checkArm(exp, a, m)
		tl.verify(engineFeeds(ctx, eng))
		return tl
	}
	if tl := checked(m); tl.failed != 0 {
		t.Fatalf("unperturbed li arm failed: %s", tl.firstErr)
	}
	for name, perturb := range map[string]func(*sim.Metrics){
		"mispredicts":  func(m *sim.Metrics) { m.Mispredicts++ },
		"destructive":  func(m *sim.Metrics) { m.Collisions.Destructive++ },
		"constructive": func(m *sim.Metrics) { m.Collisions.Constructive++ },
		"branches":     func(m *sim.Metrics) { m.Branches++ },
	} {
		bad := m
		perturb(&bad)
		if tl := checked(bad); tl.failed != 1 {
			t.Errorf("the li checks accepted a result with a perturbed %s", name)
		}
	}
}

// TestSetUpOnlyReportsColdSetUp drives --setup-only, the mode the run's
// extra cold set-ups use: it prints one setUpReport whose warm-up arms were
// checked.
func TestSetUpOnlyReportsColdSetUp(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"--setup-only", "--workload", wlTelemetrySweep, "--scratch", t.TempDir()}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	var rep setUpReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("output is not one set-up report: %v\n%s", err, out.String())
	}
	if rep.SetupS <= 0 || rep.Attempted != len(warmupRows(nil)) {
		t.Errorf("set-up report %+v: want a positive time and one warm-up arm per workload", rep)
	}
}

func copyExpected(e expected) expected {
	out := expected{}
	for k, v := range e {
		out[k] = v
	}
	return out
}

// TestSeedFixesJobOrder checks that the seed alone fixes each workload's
// job list: the same seed gives the same jobs, another seed another order
// of the same jobs.
func TestSeedFixesJobOrder(t *testing.T) {
	for _, specs := range [][]string{gridSpecs, telemetrySpecs} {
		a, b, c := rows(7, 0, specs, gridSchemes), rows(7, 0, specs, gridSchemes), rows(8, 0, specs, gridSchemes)
		if !reflect.DeepEqual(a, b) {
			t.Error("the same seed gave different row orders")
		}
		if reflect.DeepEqual(a, c) {
			t.Error("different seeds gave the same row order")
		}
		if !reflect.DeepEqual(count(a), count(c)) {
			t.Error("different seeds gave different row sets")
		}
		if reflect.DeepEqual(a, rows(7, 1, specs, gridSchemes)) {
			t.Error("two passes of one seed share their order")
		}
	}
	round := func(seed int64) [][]job { return newServeRounds(seed, serveTenants, serveRoundJobs).next() }
	if !reflect.DeepEqual(round(7), round(7)) {
		t.Error("the same seed gave different serve-mixed rounds")
	}
	a, c := round(7), round(8)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same serve-mixed rounds")
	}
	if !reflect.DeepEqual(count(append(a[0], a[1]...)), count(append(c[0], c[1]...))) {
		t.Error("different seeds gave a round different jobs, not a different order")
	}
	rs := newServeRounds(7, serveTenants, serveRoundJobs)
	r0, r1 := rs.next(), rs.next()
	if reflect.DeepEqual(r0, r1) || !reflect.DeepEqual(count(append(r0[0], r0[1]...)), count(append(r1[0], r1[1]...))) {
		t.Error("two rounds of one seed are not the same jobs in another order")
	}
	u := map[string]bool{}
	for _, a := range universe() {
		u[a.key()] = true
	}
	for _, j := range append(a[0], a[1]...) {
		for _, a := range j.arms() {
			if !u[a.key()] {
				t.Errorf("drawn arm %s is outside the expected universe", a.key())
			}
		}
	}
}

func count(js []job) map[string]int {
	out := map[string]int{}
	for _, j := range js {
		for _, a := range j.arms() {
			out[a.key()]++
		}
	}
	return out
}

func wireMetrics(m sim.Metrics) serveapi.Metrics {
	return serveapi.Metrics{Instructions: m.Instructions, Branches: m.Branches, Taken: m.TakenCount, Mispredicts: m.Mispredicts,
		CollisionsTracked: m.CollisionsTracked, Collisions: m.Collisions.Total,
		Constructive: m.Collisions.Constructive, Destructive: m.Collisions.Destructive}
}
