// Command bpjournal validates and summarizes the JSONL run journals written
// by bpexperiment -journal (and any obs.Journal). It parses every record —
// arm lifecycle records plus the telemetry types (interval time-series,
// predictor-table samples, top-K branch summaries) — exits non-zero on
// malformed input or an unknown schema version, and — unless -q is given —
// prints a sweep summary: arm counts by kind and provenance, failures,
// simulated events, the slowest arms, and, when telemetry records are
// present, an interval digest and the worst-offender branch table.
//
// With -follow it tails an in-flight journal instead: each arm record prints
// as a live one-liner as the sweep appends it (polling for growth, reopening
// from the start when the file is truncated or replaced by a new run), and
// the usual summary — including the interval digest and worst-offender
// tables — renders from everything accumulated when the tail is interrupted
// (Ctrl-C).
//
// Examples:
//
//	bpexperiment -run table3 -journal run.jsonl && bpjournal run.jsonl
//	bpjournal -q run.jsonl          # validate only, no output on success
//	bpjournal -top 5 run.jsonl      # longer slowest-arm and worst-offender lists
//	bpjournal -follow run.jsonl     # tail a sweep that is still running
//
// With -trace it becomes a trace renderer instead: given a capture of the
// live frame stream (bpdash -capture frames.jsonl, which journals never
// contain — span frames are live-only), it reconstructs the named trace's
// request → job → arm → phase tree with a waterfall bar per span and prints
// cross-trace links (singleflight followers to their winner, replay
// consumers to the capture):
//
//	bpdash -events http://127.0.0.1:8321 -capture frames.jsonl &
//	bpsubmit ... ; bpjournal -trace 1f60aa20cc407b15 frames.jsonl
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"branchsim/internal/obs"
	"branchsim/internal/report"
)

func main() {
	var (
		quiet  = flag.Bool("q", false, "validate only: no output unless the journal is malformed")
		top    = flag.Int("top", 3, "number of slowest arms and worst-offender branches to list")
		follow = flag.Bool("follow", false, "tail an in-flight journal; Ctrl-C prints the summary")
		poll   = flag.Duration("poll", 250*time.Millisecond, "journal poll interval with -follow")
		trace  = flag.String("trace", "", "render this trace ID's span tree from a live-frame capture (bpdash -capture) instead of summarizing a journal")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: bpjournal [-q] [-top N] [-follow [-poll D]] [-trace ID] JOURNAL.jsonl")
		os.Exit(2)
	}
	var err error
	switch {
	case *trace != "":
		err = runTrace(flag.Arg(0), *trace, os.Stdout)
	case *follow:
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		err = runFollow(ctx, flag.Arg(0), *poll, *quiet, *top)
	default:
		err = run(flag.Arg(0), *quiet, *top)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bpjournal:", err)
		os.Exit(1)
	}
}

func run(path string, quiet bool, top int) error {
	all, err := obs.ReadRecordsFile(path)
	if err != nil {
		return err
	}
	if quiet {
		return nil
	}
	return summarize(path, all, top)
}

// runFollow tails path until ctx is done, echoing arm lifecycle records as
// they land, then renders the summary over everything read. A journal that
// stops parsing mid-tail is an error, exactly as in batch mode.
func runFollow(ctx context.Context, path string, poll time.Duration, quiet bool, top int) error {
	all := &obs.Records{}
	skipped := map[string]bool{} // record types already reported as skipped
	err := obs.TailJournal(ctx, path, poll, true, func(line []byte) error {
		rec, err := obs.DecodeRecord(line)
		if err != nil {
			// A record type this build doesn't know is someone else's frame
			// (a newer writer's live-only types can land in tailed files);
			// skip it, but say what was skipped — a silent drop reads as
			// data loss when a newer writer's telemetry vanishes from the
			// tail. Anything else is real corruption and stays fatal.
			var se *obs.SchemaError
			if errors.As(err, &se) && se.Type != "" {
				if !quiet && !skipped[se.Type] {
					skipped[se.Type] = true
					fmt.Fprintf(os.Stderr, "bpjournal: skipping %q v%d records (unknown to this build; upgrade bpjournal to render them)\n",
						se.Type, se.Version)
				}
				return nil
			}
			return err
		}
		all.Add(rec)
		if quiet {
			return nil
		}
		if r, ok := rec.(*obs.ArmRecord); ok {
			status := "done"
			if r.Error != "" {
				status = "FAIL"
			}
			fmt.Printf("%s %-8s %-12s %s  %v", status, r.Kind, r.Source, r.Key,
				time.Duration(r.WallNanos).Round(time.Millisecond))
			if r.EventsPerSec > 0 {
				fmt.Printf(" (%.1fM events/s)", r.EventsPerSec/1e6)
			}
			if r.Error != "" {
				fmt.Printf(": %s", r.Error)
			}
			fmt.Println()
		}
		return nil
	})
	// The tail only ends by cancellation (Ctrl-C: time to summarize) or a
	// real read/parse failure.
	if err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	if quiet {
		return nil
	}
	fmt.Println()
	return summarize(path, all, top)
}

// summarize renders the sweep summary over a parsed journal.
func summarize(path string, all *obs.Records, top int) error {
	if all.Len() == 0 {
		fmt.Printf("%s: empty journal\n", path)
		return nil
	}
	recs := all.Arms

	if len(recs) > 0 {
		byKind := map[string]int{}
		bySource := map[string]int{}
		var events uint64
		var wall time.Duration
		var failures int
		for _, r := range recs {
			byKind[r.Kind]++
			bySource[r.Source]++
			events += r.Events
			wall += time.Duration(r.WallNanos)
			if r.Error != "" {
				failures++
			}
		}

		fmt.Printf("%s: %d arms (", path, len(recs))
		printCounts(byKind)
		fmt.Print("), sources: ")
		printCounts(bySource)
		fmt.Println()
		fmt.Printf("  %d branch events simulated, %v arm wall time\n", events, wall.Round(time.Millisecond))
		if failures > 0 {
			fmt.Printf("  %d arms failed:\n", failures)
			for _, r := range recs {
				if r.Error != "" {
					fmt.Printf("    %-8s %s: %s\n", r.Kind, r.Key, r.Error)
				}
			}
		}

		if top > 0 {
			slow := make([]obs.ArmRecord, len(recs))
			copy(slow, recs)
			sort.Slice(slow, func(i, j int) bool { return slow[i].WallNanos > slow[j].WallNanos })
			if len(slow) > top {
				slow = slow[:top]
			}
			fmt.Println("  slowest arms:")
			for _, r := range slow {
				fmt.Printf("    %8v %-8s %s", time.Duration(r.WallNanos).Round(time.Millisecond), r.Kind, r.Key)
				if r.EventsPerSec > 0 {
					fmt.Printf(" (%.1fM events/s)", r.EventsPerSec/1e6)
				}
				fmt.Println()
			}
		}
	} else {
		fmt.Printf("%s: no arm records\n", path)
	}

	if len(all.Intervals) > 0 || len(all.TableStats) > 0 || len(all.TaggedStats) > 0 ||
		len(all.Confidence) > 0 || len(all.TopK) > 0 {
		fmt.Printf("  telemetry: %d interval records, %d table samples, %d tagged samples, %d confidence records, %d top-K summaries\n",
			len(all.Intervals), len(all.TableStats), len(all.TaggedStats), len(all.Confidence), len(all.TopK))
	}
	if len(all.Intervals) > 0 {
		fmt.Println()
		if err := report.IntervalSummary(all.Intervals).Render(os.Stdout); err != nil {
			return err
		}
	}
	if len(all.Confidence) > 0 {
		if err := report.ConfidenceSummary(all.Confidence).Render(os.Stdout); err != nil {
			return err
		}
	}
	if len(all.TaggedStats) > 0 {
		if err := report.TaggedTableSummary(all.TaggedStats).Render(os.Stdout); err != nil {
			return err
		}
	}
	if top > 0 && len(all.TopK) > 0 {
		if err := report.TopOffenders(all.TopK, top).Render(os.Stdout); err != nil {
			return err
		}
		if t := report.LowConfidenceOffenders(all.TopK, top); t != nil {
			if err := t.Render(os.Stdout); err != nil {
				return err
			}
		}
	}
	return nil
}

// printCounts prints "k1 n1, k2 n2" with keys sorted for stable output.
func printCounts(m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		if i > 0 {
			fmt.Print(", ")
		}
		fmt.Printf("%s %d", k, m[k])
	}
}
