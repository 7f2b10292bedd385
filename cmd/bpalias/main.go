// Command bpalias prints the interference structure of a predictor over a
// workload: the most-conflicting branch pairs, the branches that suffer most
// destructive sharing, and the overall constructive/destructive split — the
// pair-level view behind the paper's collision counts, which its totals
// equal.
//
// Examples:
//
//	bpalias -workload gcc -input train -predictor gshare:4KB -top 15
//	bpalias -workload gcc -predictor tage:8KB -heatmap gcc_alias.svg
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"branchsim/internal/alias"
	"branchsim/internal/plot"
	"branchsim/internal/workload"
)

func main() {
	var (
		wl      = flag.String("workload", "gcc", "workload name")
		input   = flag.String("input", "train", "workload input")
		spec    = flag.String("predictor", "gshare:4KB", "predictor spec, e.g. 2bcgskew:8KB")
		top     = flag.Int("top", 15, "number of pairs/victims to print (also the heatmap dimension)")
		heatmap = flag.String("heatmap", "", "also render the victims×aggressors conflict matrix as an SVG heatmap to this file")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *wl, *input, *spec, *top, *heatmap); err != nil {
		fmt.Fprintln(os.Stderr, "bpalias:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, wl, input, spec string, top int, heatmapPath string) error {
	a, err := alias.NewAnalyzer(spec)
	if err != nil {
		return err
	}
	if err := workload.Run(ctx, wl, input, a); err != nil {
		return err
	}

	fmt.Printf("%s on %s/%s: %d branches, %d collided (%.1f%%), %d destructive (%.1f%% of collisions)\n\n",
		a.Spec(), wl, input, a.Branches, a.Conflicts, percent(a.Conflicts, a.Branches),
		a.Destructive, percent(a.Destructive, a.Conflicts))
	if d := a.Dropped(); d > 0 {
		fmt.Printf("warning: %d conflicts unattributed (pair table full)\n\n", d)
	}

	if tables := a.Tables(); len(tables) > 1 {
		fmt.Printf("per-table conflicts:\n%-10s %12s %10s\n", "table", "conflicts", "rate")
		for _, t := range tables {
			fmt.Printf("%-10s %12d %9.1f%%\n", t.Name, t.Conflicts, percent(t.Conflicts, a.Branches))
		}
		fmt.Println()
	}

	fmt.Printf("top interference pairs:\n%-14s %-14s %10s %12s %7s %7s\n",
		"victim", "aggressor", "conflicts", "destructive", "biasV", "biasA")
	for _, p := range a.TopPairs(top) {
		fmt.Printf("%#-14x %#-14x %10d %12d %6.1f%% %6.1f%%\n",
			p.Victim, p.Aggressor, p.Count, p.Destructive,
			100*a.Bias(p.Victim), 100*a.Bias(p.Aggressor))
	}

	fmt.Printf("\nmost-afflicted victims (static-prediction candidates):\n%-14s %10s %12s %7s\n",
		"victim", "conflicts", "destructive", "bias")
	victims := a.VictimTotals()
	if top > 0 && len(victims) > top {
		victims = victims[:top]
	}
	for _, v := range victims {
		fmt.Printf("%#-14x %10d %12d %6.1f%%\n", v.Victim, v.Count, v.Destructive, 100*a.Bias(v.Victim))
	}

	if heatmapPath != "" {
		m := a.Matrix(top)
		labels := m.Labels()
		h := plot.NewHeatmap(fmt.Sprintf("Aliasing conflicts: %s on %s/%s", a.Spec(), wl, input), labels, labels)
		h.XLabel = "aggressor"
		h.YLabel = "victim"
		for vi := range m.Counts {
			for ai, n := range m.Counts[vi] {
				if err := h.Set(vi, ai, float64(n)); err != nil {
					return err
				}
			}
		}
		if err := os.WriteFile(heatmapPath, []byte(h.SVG()), 0o644); err != nil {
			return err
		}
		fmt.Printf("\nheatmap: %s (%dx%d branches", heatmapPath, len(labels), len(labels))
		if m.Dropped > 0 {
			fmt.Printf(", %d conflicts outside the top set", m.Dropped)
		}
		fmt.Println(")")
	}
	return nil
}

// percent is n as a percentage of total, 0 for an empty total.
func percent(n, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(total)
}
