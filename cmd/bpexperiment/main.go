// Command bpexperiment regenerates the paper's tables and figures (and this
// repo's ablations). Each experiment renders one or more text tables; -csv
// additionally writes machine-readable series for plotting.
//
// Long sweeps are fault-tolerant and resumable: -keep-going renders every
// experiment that succeeded even when others fail (reporting a per-experiment
// error summary), -checkpoint journals completed simulations to a directory
// so a killed sweep resumes where it stopped, and SIGINT/SIGTERM cancel the
// event loops cooperatively instead of tearing the process down mid-write.
//
// Examples:
//
//	bpexperiment -list
//	bpexperiment -run table3
//	bpexperiment -run all -csv out/
//	bpexperiment -run fig13 -quick          # reduced inputs, seconds not minutes
//	bpexperiment -run all -keep-going -checkpoint sweep.ckpt
//
// Sweeps are observable: -journal writes one JSONL record per simulated arm
// (key, phase timings, provenance, final metrics), -metrics serves live
// expvar-style metrics plus pprof over HTTP while the sweep runs, and
// -progress prints a periodic one-line status to stderr.
//
//	bpexperiment -run all -journal run.jsonl -metrics 127.0.0.1:8080 -progress
//
// Simulation-domain telemetry rides the same journal: -interval N appends an
// interval time-series record (MISPs/KI, accuracy, collision deltas) every N
// instructions, -table-stats samples predictor-table introspection at the
// interval boundaries, and -topk K tracks each arm's K worst-offender
// branches with bounded memory. Inspect the result with bpjournal.
//
//	bpexperiment -run table3 -journal run.jsonl -interval 100000 -table-stats -topk 16
//
// -serve upgrades the endpoint to the live dashboard: an embedded web UI at
// / (arm grid, interval curves, alias heatmap, journal tail), Prometheus
// text-format metrics at /metrics, and the record stream over SSE at
// /events, alongside the /debug routes. Watching it never perturbs the run:
// the journal stays byte-identical and slow dashboard consumers only drop
// their own frames.
//
//	bpexperiment -run all -serve 127.0.0.1:8080 -interval 100000 -topk 16
//
// Storage is durable: captured trace chunks that leave decoded form carry
// CRC32C checksums that are verified before every replay, corrupt chunks
// are quarantined and the capture retried (-quarantine-dir preserves the
// evidence), and checkpoint
// records are fsynced through atomic renames so a crash never leaves a
// torn record behind.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"branchsim/internal/cliflags"
	"branchsim/internal/experiment"
)

// options collects the flags of one invocation. The replay, observability
// and telemetry groups are the shared ones every branchsim daemon/sweep tool
// registers (see internal/cliflags).
type options struct {
	runID         string
	quick         bool
	csvDir        string
	verbose       bool
	parallel      int
	keepGoing     bool
	checkpointDir string
	armTimeout    time.Duration
	replay        cliflags.Replay
	observe       cliflags.Obs
	telemetry     cliflags.Telemetry
}

func main() {
	var (
		opt  options
		list bool
	)
	flag.StringVar(&opt.runID, "run", "", "experiment id, comma-separated list, or \"all\"")
	flag.BoolVar(&list, "list", false, "list experiments and exit")
	flag.BoolVar(&opt.quick, "quick", false, "reduced-scale inputs (train/test instead of ref/train)")
	flag.StringVar(&opt.csvDir, "csv", "", "also write each table as CSV into this directory")
	flag.BoolVar(&opt.verbose, "v", false, "log every uncached simulation")
	flag.IntVar(&opt.parallel, "j", runtime.NumCPU(), "experiments to run concurrently (shared arms are still computed once)")
	flag.BoolVar(&opt.keepGoing, "keep-going", false, "render the experiments that succeed even if others fail; summarize failures and exit non-zero")
	flag.StringVar(&opt.checkpointDir, "checkpoint", "", "journal completed simulations into this directory and resume from it")
	flag.DurationVar(&opt.armTimeout, "arm-timeout", 0, "per-simulation deadline, e.g. 10m (0 = none)")
	opt.replay.Register(flag.CommandLine)
	opt.observe.Register(flag.CommandLine)
	opt.telemetry.Register(flag.CommandLine)
	flag.Parse()

	if list {
		for _, e := range experiment.All() {
			fmt.Printf("%-13s %-10s %s\n", e.ID, "["+e.Paper+"]", e.Title)
		}
		return
	}
	if opt.runID == "" {
		fmt.Fprintln(os.Stderr, "bpexperiment: -run or -list is required")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, opt); err != nil {
		fmt.Fprintln(os.Stderr, "bpexperiment:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, opt options) error {
	if opt.parallel < 1 {
		opt.parallel = 1
	}
	// Observability: one sink shared by the journal, the HTTP endpoints and
	// the progress reporter. No flag, no sink — the zero-cost default.
	sink, err := opt.observe.Observer()
	if err != nil {
		return err
	}
	defer sink.Close()
	stopEndpoints, err := opt.observe.StartEndpoints(sink, "bpexperiment", os.Stderr, nil)
	if err != nil {
		return err
	}
	defer stopEndpoints()

	hopts := []experiment.HarnessOption{
		experiment.WithArmTimeout(opt.armTimeout),
		experiment.WithObserver(sink),
	}
	if opt.telemetry.Enabled() {
		hopts = append(hopts, experiment.WithTelemetry(opt.telemetry.Config()))
	}
	if opt.verbose {
		hopts = append(hopts, experiment.WithLogger(os.Stderr))
	}
	ropts, stopReplay := opt.replay.HarnessOptions(func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "bpexperiment: "+format+"\n", args...)
	})
	defer stopReplay()
	hopts = append(hopts, ropts...)
	if opt.checkpointDir != "" {
		cp, err := experiment.OpenCheckpoint(opt.checkpointDir)
		if err != nil {
			return err
		}
		hopts = append(hopts, experiment.WithCheckpoint(cp))
		if runs, profiles := cp.Len(); runs > 0 || profiles > 0 {
			fmt.Fprintf(os.Stderr, "bpexperiment: resuming from %s (%d runs, %d profiles journaled)\n",
				opt.checkpointDir, runs, profiles)
		}
	}
	var h *experiment.Harness
	if opt.quick {
		h = experiment.NewQuickHarness(hopts...)
	} else {
		h = experiment.NewHarness(hopts...)
	}
	// Quiesce on every exit path: stop progress reporting and flush (fsync)
	// the journal so partial sweeps still leave a readable journal behind.
	defer h.Close()

	var exps []experiment.Experiment
	if opt.runID == "all" {
		exps = experiment.All()
	} else {
		for _, id := range strings.Split(opt.runID, ",") {
			e, err := experiment.ByID(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			exps = append(exps, e)
		}
	}

	if opt.csvDir != "" {
		if err := os.MkdirAll(opt.csvDir, 0o755); err != nil {
			return err
		}
	}

	// Run experiments concurrently (the harness deduplicates shared arms)
	// but emit results strictly in paper order.
	type outcome struct {
		res *experiment.Result
		err error
		dur time.Duration
	}
	results := make([]outcome, len(exps))
	sem := make(chan struct{}, opt.parallel)
	var wg sync.WaitGroup
	for i, e := range exps {
		wg.Add(1)
		go func(i int, e experiment.Experiment) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			start := time.Now()
			res, err := e.Run(ctx, h)
			results[i] = outcome{res: res, err: err, dur: time.Since(start)}
		}(i, e)
	}
	wg.Wait()

	type failure struct {
		id  string
		err error
	}
	var failures []failure
	for i, e := range exps {
		out := results[i]
		if out.err != nil {
			if !opt.keepGoing {
				if errors.Is(ctx.Err(), context.Canceled) {
					return fmt.Errorf("interrupted (checkpointed work is preserved)")
				}
				return fmt.Errorf("%s: %w", e.ID, out.err)
			}
			failures = append(failures, failure{id: e.ID, err: out.err})
			continue
		}
		for ti, t := range out.res.Tables {
			if err := t.Render(os.Stdout); err != nil {
				return err
			}
			if opt.csvDir != "" {
				name := out.res.ID
				if len(out.res.Tables) > 1 {
					name = fmt.Sprintf("%s_%d", out.res.ID, ti)
				}
				f, err := os.Create(filepath.Join(opt.csvDir, name+".csv"))
				if err != nil {
					return err
				}
				if err := t.CSV(f); err != nil {
					f.Close()
					return err
				}
				if err := f.Close(); err != nil {
					return err
				}
			}
		}
		if opt.verbose {
			fmt.Fprintf(os.Stderr, "%s done in %v\n", e.ID, out.dur.Round(time.Millisecond))
		}
	}
	if len(failures) > 0 {
		if errors.Is(ctx.Err(), context.Canceled) {
			return fmt.Errorf("interrupted with %d of %d experiments unfinished (checkpointed work is preserved)",
				len(failures), len(exps))
		}
		fmt.Fprintf(os.Stderr, "bpexperiment: %d of %d experiments failed:\n", len(failures), len(exps))
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "  %-13s %v\n", f.id, f.err)
		}
		return fmt.Errorf("%d of %d experiments failed", len(failures), len(exps))
	}
	return nil
}
