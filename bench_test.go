// Benchmarks regenerating every table and figure of the paper, plus
// predictor and workload micro-benchmarks.
//
// Each BenchmarkTableN / BenchmarkFigN runs the corresponding experiment on
// the reduced "quick" inputs (train for measurement, test for cross-training
// profiles) and reports the table it produces once, via b.Log at -v. The
// full-scale reproduction — the numbers recorded in EXPERIMENTS.md — comes
// from `go run ./cmd/bpexperiment -run all`, which uses the ref inputs; the
// benchmarks exist so `go test -bench=.` exercises every experiment path and
// times it.
//
// All experiment benchmarks share one caching harness, so an experiment's
// simulations run once regardless of b.N.
package branchsim_test

import (
	"context"
	"strings"
	"sync"
	"testing"

	"branchsim"
	"branchsim/internal/experiment"
	"branchsim/internal/trace"
	"branchsim/internal/workload"
	"branchsim/internal/xrand"
)

var (
	benchHarness     *experiment.Harness
	benchHarnessOnce sync.Once
)

func sharedHarness() *experiment.Harness {
	benchHarnessOnce.Do(func() {
		benchHarness = experiment.NewQuickHarness()
	})
	return benchHarness
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiment.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	h := sharedHarness()
	for i := 0; i < b.N; i++ {
		res, err := e.Run(context.Background(), h)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var sb strings.Builder
			for _, tb := range res.Tables {
				if err := tb.Render(&sb); err != nil {
					b.Fatal(err)
				}
			}
			b.Log("\n" + sb.String())
		}
	}
}

// ---- paper tables ----

func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }
func BenchmarkTable5(b *testing.B) { benchExperiment(b, "table5") }

// ---- paper figures ----

func BenchmarkFig1(b *testing.B)  { benchExperiment(b, "fig1") }
func BenchmarkFig2(b *testing.B)  { benchExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B)  { benchExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)  { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)  { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)  { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)  { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)  { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)  { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B) { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B) { benchExperiment(b, "fig13") }

// ---- ablations ----

func BenchmarkAblCutoff(b *testing.B)    { benchExperiment(b, "abl-cutoff") }
func BenchmarkAblShift(b *testing.B)     { benchExperiment(b, "abl-shift") }
func BenchmarkAblAgree(b *testing.B)     { benchExperiment(b, "abl-agree") }
func BenchmarkAblStaticCol(b *testing.B) { benchExperiment(b, "abl-staticcol") }
func BenchmarkAblZoo(b *testing.B)       { benchExperiment(b, "abl-zoo") }
func BenchmarkAblHistory(b *testing.B)   { benchExperiment(b, "abl-history") }
func BenchmarkAblModern(b *testing.B)    { benchExperiment(b, "abl-modern") }
func BenchmarkAblPipeline(b *testing.B)  { benchExperiment(b, "abl-pipeline") }
func BenchmarkAblExtra(b *testing.B)     { benchExperiment(b, "abl-extra") }

// ---- predictor micro-benchmarks: events per second per scheme ----

func BenchmarkPredict(b *testing.B) {
	// a mixed synthetic stream: 256 branch sites, biased and correlated
	const nSites = 256
	rng := xrand.New(1)
	pcs := make([]uint64, 4096)
	outs := make([]bool, 4096)
	state := false
	for i := range pcs {
		site := rng.Intn(nSites)
		pcs[i] = 0x1_0000 + uint64(site)*4
		switch {
		case site < 128:
			outs[i] = true // biased sites
		case site < 192:
			outs[i] = state // correlated sites
		default:
			state = rng.Bool(0.5)
			outs[i] = state
		}
	}
	for _, spec := range []string{
		"bimodal:8KB", "ghist:8KB", "gshare:8KB", "bimode:8KB", "2bcgskew:8KB",
		"agree:8KB", "gskew:8KB", "yags:8KB", "local:8KB", "mcfarling:8KB",
		"tage:8KB", "perceptron:8KB",
	} {
		b.Run(spec, func(b *testing.B) {
			p, err := branchsim.NewPredictor(spec)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k := i & 4095
				p.Predict(pcs[k])
				p.Update(pcs[k], outs[k])
			}
		})
	}
}

// ---- workload micro-benchmarks: instrumented run cost ----

func BenchmarkWorkload(b *testing.B) {
	for _, name := range branchsim.Workloads() {
		b.Run(name, func(b *testing.B) {
			p, err := workload.Get(name)
			if err != nil {
				b.Fatal(err)
			}
			var c trace.Counts
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c = trace.Counts{}
				if err := p.Run(context.Background(), workload.InputTest, &c); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(c.Branches), "branches/op")
		})
	}
}

// ---- end-to-end simulation throughput ----

func BenchmarkSimulation(b *testing.B) {
	p, err := branchsim.NewPredictor("2bcgskew:8KB")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	var last branchsim.Metrics
	for i := 0; i < b.N; i++ {
		last, err = branchsim.Simulate(ctx,
			branchsim.Workload("compress"),
			branchsim.Input(branchsim.InputTest),
			branchsim.WithPredictor(p),
			branchsim.WithCollisions(),
		)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(last.Branches)*float64(b.N)/b.Elapsed().Seconds(), "branches/s")
}
