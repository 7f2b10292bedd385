package main

import (
	"math/rand"

	"branchsim/internal/predictor"
	"branchsim/internal/workload"
	"branchsim/serveapi"
)

// input is the measurement and self-training input of every arm: the
// "test" inputs keep a job short enough that a run holds many of them.
const input = workload.InputTest

var (
	// gridSpecs are the twelve sized predictor schemes: the paper's five,
	// five contemporary extensions, and the two modern successors.
	gridSpecs = []string{"bimodal", "ghist", "gshare", "bimode", "2bcgskew",
		"agree", "gskew", "yags", "local", "mcfarling", "tage", "perceptron"}
	// telemetrySpecs are the specs whose tables the telemetry layer can
	// introspect.
	telemetrySpecs = []string{"bimodal", "ghist", "gshare", "bimode", "2bcgskew", "tage", "perceptron"}
	// gridSchemes are the paper's three columns: no static filter,
	// Static_95 and Static_Acc.
	gridSchemes = []string{"none", "static95", "staticacc"}
	// serveSizes are the table budgets serve-mixed draws from.
	serveSizes = []string{"2KB", "8KB", "32KB"}
)

// gridSize is the table budget of paper-grid and telemetry-sweep rows.
const gridSize = "8KB"

// warmupPred is the spec of serve-mixed's warm-up arms. It lies outside the
// drawn universe, so warm-up never pre-fills the memo the timed jobs hit.
const warmupPred = "bimodal:1KB"

// arm is one simulated configuration, self-trained on input.
type arm struct {
	Workload, Pred, Scheme string
}

// key is the arm's identity, spelled as serveapi.Arm.Key spells it.
func (a arm) key() string {
	return serveapi.Arm{Workload: a.Workload, Input: input, Predictor: a.Pred, Scheme: a.Scheme}.Key()
}

// job is one grid: every workload × predictor × scheme combination, in the
// order serveapi.JobSpec.Arms expands it.
type job struct {
	Workloads, Preds, Schemes []string
}

func (j job) arms() []arm {
	var out []arm
	for _, wl := range j.Workloads {
		for _, p := range j.Preds {
			for _, s := range j.Schemes {
				out = append(out, arm{wl, p, s})
			}
		}
	}
	return out
}

func (j job) spec(name string) *serveapi.JobSpec {
	return &serveapi.JobSpec{Name: name, Workloads: j.Workloads, Inputs: []string{input},
		Predictors: append([]string(nil), j.Preds...), Schemes: append([]string(nil), j.Schemes...)}
}

func sized(spec, size string) string { return predictor.Canonical(spec + ":" + size) }

// rows returns one pass over workloads × specs, one row per pair, with the
// given schemes, shuffled by seed and pass. The pass's content never
// depends on the seed, only its order does, so seeds compare like for like.
func rows(seed int64, pass int, specs, schemes []string) []job {
	var out []job
	for _, wl := range workload.Names() {
		for _, s := range specs {
			out = append(out, job{Workloads: []string{wl}, Preds: []string{sized(s, gridSize)}, Schemes: schemes})
		}
	}
	r := rand.New(rand.NewSource(seed*1_000_003 + int64(pass)))
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// warmupRows is one row per workload with the cheapest spec: it fills every
// workload's lazily built input before the timed phase.
func warmupRows(schemes []string) []job {
	var out []job
	for _, wl := range workload.Names() {
		out = append(out, job{Workloads: []string{wl}, Preds: []string{sized("bimodal", gridSize)}, Schemes: schemes})
	}
	return out
}

// servePreds is the fixed popularity order of serve-mixed's predictor
// draws: every spec × size, spec-major, so the paper's predictors lead the
// distribution and tage and perceptron sit in its tail.
func servePreds() []string {
	var out []string
	for _, s := range gridSpecs {
		for _, sz := range serveSizes {
			out = append(out, sized(s, sz))
		}
	}
	return out
}

// serveDraws generates serve-mixed's jobs. The repository holds
// no recorded tenant traffic, so the draw is an assumption, kept to the
// fewest parameters that give a nonzero dedupe share:
//   - a job has the shape of the CI bpserve smoke step's grids, one
//     workload × two distinct predictor specs, with two distinct schemes
//     (4 arms): with one scheme, job_p50_s spread half as much again
//     between runs;
//   - workloads, predictors and schemes are each drawn Zipf(s = 1.2) over a
//     fixed popularity order: workload.Names() order, servePreds order,
//     gridSchemes order. The skew, not measured traffic, is what makes
//     tenants repeat each other's arms.
//
// The seed picks the draws.
type serveDraws struct {
	wls, preds             []string
	wlZipf, prZipf, scZipf *rand.Zipf
}

// serveSkew is the Zipf exponent of every serve-mixed draw (an assumption;
// see serveDraws).
const serveSkew = 1.2

func newServeDraws(seed int64) *serveDraws {
	r := rand.New(rand.NewSource(seed*1_000_003 + 7919))
	wls := workload.Names()
	preds := servePreds()
	return &serveDraws{
		wls: wls, preds: preds,
		wlZipf: rand.NewZipf(r, serveSkew, 1, uint64(len(wls)-1)),
		prZipf: rand.NewZipf(r, serveSkew, 1, uint64(len(preds)-1)),
		scZipf: rand.NewZipf(r, serveSkew, 1, uint64(len(gridSchemes)-1)),
	}
}

func (d *serveDraws) next() job {
	wl := d.wls[d.wlZipf.Uint64()]
	p1 := d.preds[d.prZipf.Uint64()]
	p2 := p1
	for p2 == p1 {
		p2 = d.preds[d.prZipf.Uint64()]
	}
	s1 := gridSchemes[d.scZipf.Uint64()]
	s2 := s1
	for s2 == s1 {
		s2 = gridSchemes[d.scZipf.Uint64()]
	}
	return job{Workloads: []string{wl}, Preds: []string{p1, p2}, Schemes: []string{s1, s2}}
}

// servePopulationSeed fixes the draws of serve-mixed's job population.
const servePopulationSeed = 1

// serveRounds deals serve-mixed's rounds. Every round serves the same
// population of jobs, drawn once with servePopulationSeed; --seed shuffles
// each round and deals it to the tenants in turn. Seeds, and runs that fit
// a different number of rounds into --seconds, then serve the same job mix,
// as the row workloads' whole passes do.
type serveRounds struct {
	pop     []job
	tenants int
	r       *rand.Rand
}

// newServeRounds draws a population of perTenant jobs per tenant.
func newServeRounds(seed int64, tenants, perTenant int) *serveRounds {
	s := &serveRounds{tenants: tenants, r: rand.New(rand.NewSource(seed*1_000_003 + 17))}
	d := newServeDraws(servePopulationSeed)
	for i := 0; i < tenants*perTenant; i++ {
		s.pop = append(s.pop, d.next())
	}
	return s
}

// next returns the next round: the population, shuffled, one job list per
// tenant.
func (s *serveRounds) next() [][]job {
	all := append([]job(nil), s.pop...)
	s.r.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	out := make([][]job, s.tenants)
	for i, j := range all {
		out[i%s.tenants] = append(out[i%s.tenants], j)
	}
	return out
}

// universe lists every arm any workload can request, warm-up included: the
// arms expected.jsonl must hold.
func universe() []arm {
	seen := map[arm]bool{}
	var out []arm
	add := func(a arm) {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	for _, wl := range workload.Names() {
		for _, s := range gridSpecs {
			for _, sch := range gridSchemes {
				add(arm{wl, sized(s, gridSize), sch})
			}
		}
		for _, p := range servePreds() {
			for _, sch := range gridSchemes {
				add(arm{wl, p, sch})
			}
		}
		add(arm{wl, warmupPred, "none"})
	}
	return out
}
