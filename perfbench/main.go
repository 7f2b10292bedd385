// Command perfbench is branchsim's benchmark. It runs one of three
// closed-loop workloads — paper-grid, telemetry-sweep, serve-mixed — for a
// fixed time and prints the end-to-end metrics (--trace 0) or, from a
// separate traced run over a sample of the same jobs, the per-layer ledger
// (--trace 1). Every arm result is checked against the offline values in
// expected.jsonl, and an arm of a workload whose branch stream varies from
// run to run (li) also against an oracle over its own capture; a mismatch
// counts as a failed operation.
//
// Run it from the repository root through run.sh, which builds the binary:
//
//	bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md for the workloads,
// the metrics and what each layer metric should move.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
)

// Workload names, as BENCHMARK.json declares them.
const (
	wlPaperGrid      = "paper-grid"
	wlTelemetrySweep = "telemetry-sweep"
	wlServeMixed     = "serve-mixed"
)

var workloads = []string{wlPaperGrid, wlTelemetrySweep, wlServeMixed}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	// scratch holds the run's temporary checkpoint and journal files.
	scratch string
	// setups is how many cold set-ups a run times, the run's own and
	// setups-1 in fresh processes; setup_s is their median.
	setups int
	// maxJobs, when positive, caps the timed phase at one pass or round of
	// that many jobs (tests use it for tiny passes); zero runs until
	// --seconds is spent.
	maxJobs int
	// sample caps the jobs per workload (per tenant for serve-mixed) the
	// traced run replays.
	sample int
	exp    expected
	log    io.Writer
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	wl := fl.String("workload", "", "workload to run: "+strings.Join(workloads, ", "))
	seed := fl.Int64("seed", 1, "seed fixing the job order")
	seconds := fl.Float64("seconds", 20, "length of the timed phase")
	traced := fl.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced run")
	scratch := fl.String("scratch", ".bench_build", "directory for temporary checkpoint and journal files")
	writeExp := fl.String("write-expected", "", "recompute the expected arm metrics offline into this file and exit")
	setups := fl.Int("setups", 5, "cold set-ups to time, the run's own and the rest in fresh processes; setup_s is their median")
	setupOnly := fl.Bool("setup-only", false, "time one cold set-up of the workload, print it as JSON and exit")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *writeExp != "" {
		if err := writeExpected(*writeExp, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if !slices.Contains(workloads, *wl) {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *wl, strings.Join(workloads, ", "))
		return 2
	}
	if *seconds <= 0 || *setups < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds and --setups must be positive and --trace 0 or 1")
		return 2
	}
	exp, err := loadExpected()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*scratch, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	cfg := config{workload: *wl, seed: *seed, seconds: *seconds, scratch: dir, setups: *setups, sample: 12, exp: exp, log: stderr}
	if *setupOnly {
		return printSetUp(cfg, stdout, stderr)
	}

	fmt.Fprintln(stdout, envStamp(*seed))
	var res result
	if *traced == 1 {
		res, err = runTraced(cfg, stdout, filepath.Join(*scratch, "spans-"+*wl+".jsonl"))
	} else {
		res, err = runWorkload(cfg, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runWorkload runs one workload untraced and reports its end-to-end metrics.
func runWorkload(cfg config, stdout io.Writer) (result, error) {
	var (
		t   timedRun
		err error
	)
	switch cfg.workload {
	case wlPaperGrid:
		t, err = runRows(cfg, paperGrid)
	case wlTelemetrySweep:
		t, err = runRows(cfg, telemetrySweep)
	case wlServeMixed:
		t, err = runServeMixed(cfg)
	}
	if err != nil {
		return result{}, err
	}
	more, warm, err := childSetUps(cfg)
	if err != nil {
		return result{}, err
	}
	t.setup = append(t.setup, more...)
	t.add(warm, false)
	ms := t.metrics()
	fmt.Fprintf(stdout, "%s: %d jobs timed in %.2f s\n", cfg.workload, len(t.jobs), t.wall)
	deciles := make([]string, 9)
	for i := range deciles {
		deciles[i] = fmt.Sprintf("%.4g", quantile(t.jobs, float64(i+1)/10))
	}
	fmt.Fprintf(stdout, "%s: job wall deciles (s): %s\n", cfg.workload, strings.Join(deciles, " "))
	if len(t.dedupe) > 0 {
		shares := make([]string, len(t.dedupe))
		for i, d := range t.dedupe {
			shares[i] = fmt.Sprintf("%.3f", d)
		}
		fmt.Fprintf(stdout, "%s: dedupe share (arms saved / arms run) per round: %s\n", cfg.workload, strings.Join(shares, " "))
	}
	printTally(stdout, cfg.workload, t.tally)
	samples := map[string]int{"setup_s": len(t.setup), "job_p50_s": len(t.jobs), "job_p90_s": len(t.jobs),
		"branches_per_s": len(t.jobs), "peak_mem_mb": t.memSamples}
	printMetrics(stdout, ms, samples)
	return t.result(ms), nil
}

// printSetUp is --setup-only: one cold set-up, reported as a setUpReport.
func printSetUp(cfg config, stdout, stderr io.Writer) int {
	sec, t, err := setUpOnce(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(setUpReport{SetupS: sec, Attempted: t.attempted, Failed: t.failed, FailedBy: t.failedBy, FirstErr: t.firstErr})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// result is the output line for t. An arm still waiting for the oracle
// check was never fully checked, so it counts as failed.
func (t tally) result(ms map[string]metric) result {
	failed := t.failed + len(t.pending)
	return result{Correct: failed == 0, Attempted: t.attempted, Failed: failed, Metrics: ms}
}

// printTally reports failed of attempted arms, by program workload, and the
// first failure.
func printTally(w io.Writer, name string, t tally) {
	var by []string
	for wl, n := range t.failedBy {
		by = append(by, fmt.Sprintf("%s %d", wl, n))
	}
	sort.Strings(by)
	fmt.Fprintf(w, "%s: failed %d of %d arms attempted", name, t.failed, t.attempted)
	if len(by) > 0 {
		fmt.Fprintf(w, " (%s)", strings.Join(by, ", "))
	}
	fmt.Fprintln(w)
	if len(t.pending) > 0 {
		fmt.Fprintf(w, "%s: %d arms never checked against the oracle, counted as failed\n", name, len(t.pending))
	}
	if t.firstErr != "" {
		fmt.Fprintf(w, "%s: first failure: %s\n", name, t.firstErr)
	}
}

// printMetrics writes one human-readable line per metric, sorted by name;
// samples, when it has the metric, adds its sample count.
func printMetrics(w io.Writer, ms map[string]metric, samples map[string]int) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if k, ok := samples[n]; ok {
			fmt.Fprintf(w, "  %-48s %14.6g %-12s n=%d\n", n, ms[n].Value, ms[n].Unit, k)
		} else {
			fmt.Fprintf(w, "  %-48s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
		}
	}
}

// envStamp describes the machine and the code measured, so results from
// different CPUs or commits are not compared by mistake. The commit comes
// from BENCH_COMMIT (run.sh sets it when the checkout is a git repository);
// the source digest hashes the repository's Go sources and always works.
func envStamp(seed int64) string {
	commit := os.Getenv("BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return fmt.Sprintf("env: cpu=%q nproc=%d gomaxprocs=%d go=%s os=%s/%s seed=%d commit=%s source=%s",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		seed, commit, sourceDigest("."))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every .go, go.mod and go.sum file under root in path
// order, skipping build and VCS directories, and returns the first 12 hex
// digits. The benchmark runs from the repository root, so root is ".".
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); n == ".git" || n == ".bench_build" {
				return filepath.SkipDir
			}
			return nil
		}
		n := d.Name()
		if !strings.HasSuffix(n, ".go") && n != "go.mod" && n != "go.sum" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}
