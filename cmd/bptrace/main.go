// Command bptrace records workload branch streams to compact, checksummed
// binary trace files (the BTRC3 format of internal/trace), prints
// statistics about existing traces, and replays traces through predictors.
// Traces decouple workload execution from simulation: record once, sweep
// many predictor configurations.
//
// Examples:
//
//	bptrace record -workload gcc -input ref -o gcc.ref.btrc
//	bptrace stat gcc.ref.btrc
//	bptrace replay -predictor gshare:16KB gcc.ref.btrc
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"branchsim"
	"branchsim/internal/replay"
	"branchsim/internal/sim"
	"branchsim/internal/trace"
	"branchsim/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	switch os.Args[1] {
	case "record":
		err = record(ctx, os.Args[2:])
	case "stat":
		err = stat(os.Args[2:])
	case "replay":
		err = replayTrace(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bptrace:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  bptrace record -workload W -input I -o FILE
  bptrace stat FILE
  bptrace replay -predictor SPEC FILE`)
}

func record(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	wl := fs.String("workload", "gcc", "workload name")
	input := fs.String("input", "train", "workload input")
	out := fs.String("o", "", "output trace path (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("record: -o is required")
	}
	// Capture through a replay engine and export its checksummed chunks
	// with Trace.WriteTo. Past 64 MiB of encoded chunks the engine spills
	// to a temporary file beside the output, so memory stays bounded
	// however long the stream is.
	e := replay.New(1, 64<<20, filepath.Dir(*out))
	defer e.Close()
	key := replay.Key(*wl, *input)
	produce := func(r trace.Recorder) error { return workload.Run(ctx, *wl, *input, r) }
	counts, err := e.Run(ctx, key, produce, func() (trace.Recorder, error) { return trace.Discard, nil })
	if err != nil {
		return err
	}
	captured, _ := e.Trace(key)
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := captured.WriteTo(f); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fi, _ := os.Stat(*out)
	fmt.Printf("recorded %s/%s: %d branches, %d instructions, %d bytes (%.2f bits/branch)\n",
		*wl, *input, counts.Branches, counts.Instructions, fi.Size(),
		8*float64(fi.Size())/float64(counts.Branches))
	return nil
}

func stat(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("stat: expected one trace file")
	}
	counts, err := replayFile(args[0], trace.Discard)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d instructions, %d branches (%.1f CBRs/KI, %.1f%% taken)\n",
		args[0], counts.Instructions, counts.Branches, counts.CBRsPerKI(),
		100*float64(counts.TakenCount)/float64(counts.Branches))
	return nil
}

func replayTrace(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	pred := fs.String("predictor", "gshare:16KB", "predictor spec")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("replay: expected one trace file")
	}
	m, err := simulateFile(fs.Arg(0), *pred)
	if err != nil {
		return err
	}
	fmt.Println(m.String())
	return nil
}

// simulateFile runs the predictor spec, with collision tracking, over the
// trace file at path.
func simulateFile(path, spec string) (sim.Metrics, error) {
	p, err := branchsim.NewPredictor(spec)
	if err != nil {
		return sim.Metrics{}, err
	}
	runner := sim.NewRunner(p, sim.WithCollisions(), sim.WithLabels(path, "trace"))
	if _, err := replayFile(path, runner); err != nil {
		return sim.Metrics{}, err
	}
	return runner.Metrics(), nil
}

// replayFile streams the trace file at path into rec and returns its totals.
func replayFile(path string, rec trace.Recorder) (trace.Counts, error) {
	f, err := os.Open(path)
	if err != nil {
		return trace.Counts{}, err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return trace.Counts{}, err
	}
	return r.Replay(rec)
}
