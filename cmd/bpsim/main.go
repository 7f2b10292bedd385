// Command bpsim runs one branch-prediction simulation: a workload's branch
// stream through a dynamic predictor, optionally combined with static hints.
//
// Examples:
//
//	bpsim -workload gcc -input ref -predictor gshare:16KB
//	bpsim -workload gcc -predictor 2bcgskew:8KB -hints gcc.hints.json -shift
//	bpsim -workload go -predictor ghist:4KB -collisions
//	bpsim -workload gcc -predictor gshare:16KB -metrics 127.0.0.1:8080
//
// Telemetry: -journal writes the run's records as JSONL; adding -interval N,
// -table-stats or -topk K enriches it with an interval time-series,
// predictor-table samples and worst-offender branch lists (see bpjournal).
//
//	bpsim -workload gcc -predictor gshare:16KB -journal run.jsonl -interval 100000 -topk 16
//
// -serve hosts the live dashboard while the run executes: the web UI at /,
// Prometheus metrics at /metrics and the SSE record stream at /events.
//
//	bpsim -workload gcc -predictor gshare:16KB -serve 127.0.0.1:8080 -interval 100000
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"branchsim"
	"branchsim/internal/cliflags"
	"branchsim/internal/core"
)

func main() {
	var (
		wl         = flag.String("workload", "gcc", "workload name (see -list)")
		input      = flag.String("input", "ref", "workload input: test, train or ref")
		pred       = flag.String("predictor", "gshare:16KB", "dynamic predictor spec, e.g. 2bcgskew:8KB")
		hintsPath  = flag.String("hints", "", "static hint database (JSON) produced by bpselect")
		shift      = flag.Bool("shift", false, "shift outcomes of statically predicted branches into the global history")
		collisions = flag.Bool("collisions", true, "track predictor-table collisions")
		list       = flag.Bool("list", false, "list workloads and predictor schemes, then exit")
		observe    cliflags.Obs
		tel        cliflags.Telemetry
	)
	observe.Register(flag.CommandLine)
	tel.Register(flag.CommandLine)
	flag.Parse()

	if *list {
		fmt.Println("workloads: ")
		for _, name := range branchsim.Workloads() {
			p, _ := branchsim.WorkloadByName(name)
			fmt.Printf("  %-9s %s\n", name, p.Description())
		}
		fmt.Println("predictors:", branchsim.PredictorNames())
		return
	}

	if err := run(*wl, *input, *pred, *hintsPath, observe, *shift, *collisions, tel.Config(), os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bpsim:", err)
		os.Exit(1)
	}
}

// run simulates one arm under the parsed observability flags, writing
// endpoint, progress and warning lines to logw.
func run(wl, input, pred, hintsPath string, observe cliflags.Obs, shift, collisions bool, tel branchsim.TelemetryConfig, logw io.Writer) error {
	dyn, err := branchsim.NewPredictor(pred)
	if err != nil {
		return err
	}

	var hints *branchsim.HintDB
	if hintsPath != "" {
		hints, err = core.LoadHintsFile(hintsPath)
		if err != nil {
			return err
		}
		if hints.Workload != wl {
			return fmt.Errorf("hints were selected for workload %q, not %q", hints.Workload, wl)
		}
	}
	policy := branchsim.NoShift
	if shift {
		policy = branchsim.ShiftOutcome
	}
	combined := branchsim.Combine(dyn, hints, policy)

	telemetryOn := tel.Enabled()
	sink, err := observe.Observer()
	if err != nil {
		return err
	}
	defer sink.Close()
	stopEndpoints, err := observe.StartEndpoints(sink, "bpsim", logw, nil)
	if err != nil {
		return err
	}
	defer stopEndpoints()
	if telemetryOn && observe.JournalPath == "" {
		fmt.Fprintln(logw, "bpsim: telemetry enabled without -journal; records will be collected and discarded")
	}

	simOpts := []branchsim.SimOption{
		branchsim.Workload(wl),
		branchsim.Input(input),
		branchsim.WithPredictor(combined),
		branchsim.WithObserver(sink),
	}
	if telemetryOn {
		simOpts = append(simOpts, branchsim.WithTelemetry(tel))
	}
	if collisions {
		simOpts = append(simOpts, branchsim.WithCollisions())
	}
	m, err := branchsim.Simulate(context.Background(), simOpts...)
	if err != nil {
		return err
	}

	fmt.Println(m.String())
	if hints != nil {
		st := combined.Stats()
		fmt.Printf("static: %d hinted branches, %d executions (%.1f%% of branches), %d static mispredicts\n",
			hints.Len(), st.StaticExecs,
			100*float64(st.StaticExecs)/float64(m.Branches), st.StaticMispred)
	}
	return nil
}
