// Command bpserve is the long-running sweep service: a daemon that accepts
// sweep jobs over a versioned HTTP job API, expands each job into a
// (workload × input × predictor × scheme) grid of arms, and runs the arms on
// one shared experiment harness. Identical arms are deduplicated across jobs
// and tenants, and a workload's instrumented execution is captured once and
// replayed for every arm that needs it — submitting the same grid twice
// costs one sweep.
//
//	bpserve -addr 127.0.0.1:8321 -quick
//	bpserve -addr :8321 -checkpoint sweep.ckpt -journal runs.jsonl -interval 100000
//
// The listener serves, from one address: the job API under /api/v1/ (POST
// /api/v1/jobs, GET /api/v1/jobs, GET /api/v1/jobs/{id}, POST
// /api/v1/jobs/{id}/cancel — see branchsim/serveapi for the wire schema and
// Go client), the live dashboard at /, Prometheus metrics at /metrics, the
// SSE record stream at /events, and the /debug routes. Submit jobs with
// bpsubmit or curl:
//
//	curl -s localhost:8321/api/v1/jobs -d '{"type":"job_spec","v":1,
//	  "workloads":["compress"],"inputs":["test"],"predictors":["gshare:8KB"]}'
//
// Admission control sheds load instead of queueing: a tenant over its
// in-flight job quota (-max-tenant-jobs), a grid over the per-job arm quota
// (-max-arms) or a draining daemon gets a typed error immediately.
//
// SIGTERM and SIGINT shut down gracefully: admission stops, in-flight arms
// drain for up to -grace, and whatever a deadline cuts off is cancelled
// cooperatively. With -checkpoint every completed arm is already journaled,
// so a restarted daemon resumes resubmitted jobs with zero recompute.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"branchsim/internal/cliflags"
	"branchsim/internal/dashboard"
	"branchsim/internal/experiment"
	"branchsim/internal/obs"
	"branchsim/internal/serve"
)

// options collects the flags of one invocation.
type options struct {
	addr          string
	quick         bool
	grace         time.Duration
	checkpointDir string
	armTimeout    time.Duration
	armWorkers    int
	maxTenantJobs int
	maxArmsPerJob int
	replay        cliflags.Replay
	observe       cliflags.Obs
	telemetry     cliflags.Telemetry

	// ready, when non-nil, receives the bound listen address once the job
	// API is serving (test hook).
	ready chan<- string
}

func main() {
	var opt options
	flag.StringVar(&opt.addr, "addr", "127.0.0.1:8321", "listen address for the job API, dashboard, /metrics and /events (\":0\" picks an ephemeral port)")
	flag.BoolVar(&opt.quick, "quick", false, "reduced-scale inputs (train/test instead of ref/train)")
	flag.DurationVar(&opt.grace, "grace", 30*time.Second, "how long a shutdown signal lets in-flight arms drain before cancelling them")
	flag.StringVar(&opt.checkpointDir, "checkpoint", "", "journal completed simulations into this directory and resume from it")
	flag.DurationVar(&opt.armTimeout, "arm-timeout", 0, "per-simulation deadline, e.g. 10m (0 = none)")
	flag.IntVar(&opt.armWorkers, "arm-workers", runtime.GOMAXPROCS(0), "concurrently executing arms across all jobs")
	flag.IntVar(&opt.maxTenantJobs, "max-tenant-jobs", serve.DefaultMaxTenantJobs, "in-flight job quota per tenant; further submissions are rejected, not queued")
	flag.IntVar(&opt.maxArmsPerJob, "max-arms", serve.DefaultMaxArmsPerJob, "arm quota per job; larger grids must be split")
	opt.replay.Register(flag.CommandLine)
	opt.observe.RegisterJournal(flag.CommandLine)
	opt.telemetry.Register(flag.CommandLine)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, opt); err != nil {
		fmt.Fprintln(os.Stderr, "bpserve:", err)
		os.Exit(1)
	}
}

// run assembles the daemon and serves until ctx ends, then drains.
func run(ctx context.Context, opt options) error {
	// The daemon always observes: job lifecycle records and the serve.*
	// series feed the dashboard and /metrics even without -journal.
	obsOpts := opt.observe.ObserverOptions()
	if opt.observe.JournalPath != "" {
		j, err := obs.OpenJournal(opt.observe.JournalPath)
		if err != nil {
			return err
		}
		obsOpts = append(obsOpts, obs.WithJournal(j))
	}
	sink := obs.New(obsOpts...)
	defer sink.Close()
	if opt.observe.Progress {
		defer sink.StartProgress(os.Stderr, 2*time.Second)()
	}

	hopts := []experiment.HarnessOption{
		experiment.WithArmTimeout(opt.armTimeout),
		experiment.WithObserver(sink),
	}
	if opt.telemetry.Enabled() {
		hopts = append(hopts, experiment.WithTelemetry(opt.telemetry.Config()))
	}
	ropts, stopReplay := opt.replay.HarnessOptions(func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "bpserve: "+format+"\n", args...)
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
			fmt.Fprintf(os.Stderr, "bpserve: resuming from %s (%d runs, %d profiles journaled)\n",
				opt.checkpointDir, runs, profiles)
		}
	}
	var h *experiment.Harness
	if opt.quick {
		h = experiment.NewQuickHarness(hopts...)
	} else {
		h = experiment.NewHarness(hopts...)
	}
	defer h.Close()

	s, err := serve.New(serve.Config{
		Harness:       h,
		Obs:           sink,
		Workers:       opt.armWorkers,
		MaxTenantJobs: opt.maxTenantJobs,
		MaxArmsPerJob: opt.maxArmsPerJob,
	})
	if err != nil {
		return err
	}

	// One listener for everything: job API, dashboard UI, /metrics, /events,
	// /debug. The dashboard handler is the fallback behind /api/v1/.
	state, stopFeed := dashboard.Attach(sink)
	defer stopFeed()
	httpSrv, err := sink.Serve(opt.addr, obs.WithRootHandler(serve.Handler(s, dashboard.Handler(state))))
	if err != nil {
		s.Close()
		return err
	}
	// Closed twice on the normal path (explicitly after drain, and here);
	// Close is idempotent, and this defer covers early returns.
	defer httpSrv.Close()
	fmt.Fprintf(os.Stderr, "bpserve: serving on http://%s/ (job API under /api/v1/, dashboard at /, /metrics, /events)\n", httpSrv.Addr())
	if opt.ready != nil {
		opt.ready <- httpSrv.Addr()
	}

	<-ctx.Done()
	fmt.Fprintf(os.Stderr, "bpserve: shutting down; draining in-flight arms (grace %v)\n", opt.grace)
	dctx, dcancel := context.WithTimeout(context.Background(), opt.grace)
	defer dcancel()
	if err := s.Drain(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "bpserve: grace period expired; cancelled remaining arms (checkpointed work is preserved)")
	}
	s.Close()
	return httpSrv.Close()
}
