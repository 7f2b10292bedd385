package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"branchsim/internal/experiment"
	"branchsim/internal/obs"
	"branchsim/internal/replay"
	"branchsim/internal/serve"
	"branchsim/internal/sim"
	"branchsim/internal/telemetry"
	"branchsim/serveapi"
)

// armWorkers bounds the arms one job runs at once, and serve-mixed's daemon
// workers: the benchmark box has two cores.
const armWorkers = 2

// minJobs is the fewest jobs a run times, whatever --seconds says, so that
// at least ten lie beyond the p90.
const minJobs = 100

// telemetryConfig is telemetry-sweep's collector set: every collector on.
var telemetryConfig = telemetry.Config{Interval: 100_000, TableStats: true, TopK: 16, Confidence: true}

// tally counts checked arms. An arm fails when it errors, is refused, or
// differs from its expected metrics; every delivered result, matching or
// not, counts its branches.
type tally struct {
	attempted, failed int
	failedBy          map[string]int // failed arms by workload
	firstErr          string
	branches          uint64
	// pending holds the delivered arms of unstable workloads that still
	// await the oracle check (verify) over their harness's capture.
	pending []delivered
}

// checkArm checks one delivered result against exp and queues it for the
// oracle check when its workload is unstable.
func (t *tally) checkArm(exp expected, a arm, m sim.Metrics) {
	if msg := exp.check(a, m); msg != "" {
		t.fail(a.Workload, msg)
	} else if unstable[a.Workload] {
		t.pending = append(t.pending, delivered{a, m})
	}
}

func (t *tally) fail(wl, msg string) {
	t.failed++
	if t.failedBy == nil {
		t.failedBy = map[string]int{}
	}
	t.failedBy[wl]++
	if t.firstErr == "" {
		t.firstErr = msg
	}
}

// add merges o's checks into t, and its branches too when timed.
func (t *tally) add(o tally, timed bool) {
	t.attempted += o.attempted
	t.failed += o.failed
	for wl, n := range o.failedBy {
		if t.failedBy == nil {
			t.failedBy = map[string]int{}
		}
		t.failedBy[wl] += n
	}
	if t.firstErr == "" {
		t.firstErr = o.firstErr
	}
	t.pending = append(t.pending, o.pending...)
	if timed {
		t.branches += o.branches
	}
}

// timedRun is what one untraced run measured. Its tally's branches cover
// the timed phase only; its checks cover set-up and warm-up too.
type timedRun struct {
	tally
	setup      []float64 // seconds per cold set-up, one per process
	jobs       []float64 // wall seconds per timed job, submit to last arm
	wall       float64   // timed wall seconds
	peakMB     float64
	memSamples int
	// dedupe is serve-mixed's measured dedupe share per round: arms the
	// memo or checkpoint answered ÷ arms run, from the tenants ledger.
	dedupe []float64
}

func (t *timedRun) metrics() map[string]metric {
	return map[string]metric{
		"setup_s":        {median(t.setup), "s"},
		"branches_per_s": {float64(t.branches) / t.wall, "1/s"},
		"job_p50_s":      {quantile(t.jobs, 0.5), "s"},
		"job_p90_s":      {quantile(t.jobs, 0.9), "s"},
		"peak_mem_mb":    {t.peakMB, "MB"},
	}
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the q-quantile of xs by linear interpolation between order
// statistics; NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// runArms runs arms on h with armWorkers goroutines and checks each result
// against exp.
func runArms(ctx context.Context, h *experiment.Harness, arms []arm, exp expected) tally {
	var (
		out  = tally{attempted: len(arms)}
		mu   sync.Mutex
		wg   sync.WaitGroup
		next atomic.Int64
	)
	for w := 0; w < armWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(arms) {
					return
				}
				a := arms[i]
				m, err := h.Run(ctx, harnessArm(a))
				mu.Lock()
				if err != nil {
					out.fail(a.Workload, err.Error())
				} else {
					out.branches += m.Branches
					out.checkArm(exp, a, m)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// runRow runs one grid row on a fresh harness with a fresh replay engine of
// armWorkers workers, as a user sweeping one row would, and returns the
// row's checks and its wall seconds: running the arms and closing the
// harness. The arms of an unstable workload are then checked against the
// oracle over the row's capture, outside the wall time, and only after
// that is the engine closed.
func runRow(ctx context.Context, j job, exp expected, opts ...experiment.HarnessOption) (tally, float64) {
	t0 := time.Now()
	eng := replay.New(armWorkers, 0, "")
	defer eng.Close()
	h := experiment.NewHarness(append([]experiment.HarnessOption{experiment.WithReplay(eng)}, opts...)...)
	t := runArms(ctx, h, j.arms(), exp)
	h.Close()
	sec := time.Since(t0).Seconds()
	t.verify(engineFeeds(ctx, eng))
	return t, sec
}

// rowBench is a row workload: paper-grid or telemetry-sweep.
type rowBench struct {
	specs, schemes []string
	// setUp builds the per-run state (an observer, say) and returns the
	// harness options every row gets plus a release function.
	setUp func(dir string) ([]experiment.HarnessOption, func(), error)
}

var (
	paperGrid = rowBench{specs: gridSpecs, schemes: gridSchemes,
		setUp: func(string) ([]experiment.HarnessOption, func(), error) { return nil, func() {}, nil }}
	telemetrySweep = rowBench{specs: telemetrySpecs, schemes: []string{"none"}, setUp: telemetrySetUp}
)

// telemetrySetUp opens the sweep's journal: one observer journaling every
// row's telemetry records to a file. The journal is not fsynced per row.
func telemetrySetUp(dir string) ([]experiment.HarnessOption, func(), error) {
	f, err := os.CreateTemp(dir, "journal-*.jsonl")
	if err != nil {
		return nil, nil, err
	}
	sink := obs.New(obs.WithJournal(obs.NewJournal(f)))
	release := func() {
		sink.Close()
		f.Close()
		os.Remove(f.Name())
	}
	return []experiment.HarnessOption{experiment.WithObserver(sink), experiment.WithTelemetry(telemetryConfig)}, release, nil
}

// setUpRows builds a row workload's per-run state and runs one untimed
// warm-up row per workload, which fills every lazily built input and grows
// the heap, so no lazy set-up falls into the timed phase.
func setUpRows(ctx context.Context, cfg config, b rowBench) ([]experiment.HarnessOption, func(), tally, error) {
	opts, release, err := b.setUp(cfg.scratch)
	if err != nil {
		return nil, nil, tally{}, err
	}
	var t tally
	for _, j := range warmupRows(b.schemes) {
		res, _ := runRow(ctx, j, cfg.exp, opts...)
		t.add(res, false)
	}
	return opts, release, t, nil
}

// runRows runs a row workload: one cold set-up (setUpRows), then whole
// seeded passes over workloads × specs until the run holds minJobs jobs
// and another pass would end it farther from cfg.seconds than stopping
// does (more than half a pass past it). Whole passes keep every
// run's job mix identical; the seed only changes the order. Each row
// starts from a collected heap, as a row run on its own would: without it
// a row's collections depend on the garbage the rows before it left, and
// timings and peak memory follow the seed's order instead of the code. The
// collections fall between jobs and outside the timed wall, which is the
// sum of the job times.
func runRows(cfg config, b rowBench) (timedRun, error) {
	ctx := context.Background()
	var t timedRun
	t0 := time.Now()
	opts, release, warm, err := setUpRows(ctx, cfg, b)
	if err != nil {
		return t, err
	}
	defer release()
	t.setup = append(t.setup, time.Since(t0).Seconds())
	t.add(warm, false)

	mem := startMemPeak()
	for pass := 0; ; pass++ {
		if pass > 0 && (cfg.maxJobs > 0 || len(t.jobs) >= minJobs && t.wall+t.wall/float64(2*pass) > cfg.seconds) {
			break
		}
		pj := rows(cfg.seed, pass, b.specs, b.schemes)
		if cfg.maxJobs > 0 && len(pj) > cfg.maxJobs {
			pj = pj[:cfg.maxJobs]
		}
		w0, b0 := t.wall, t.branches
		for _, j := range pj {
			runtime.GC()
			res, d := runRow(ctx, j, cfg.exp, opts...)
			t.jobs = append(t.jobs, d)
			t.wall += d
			t.add(res, true)
		}
		fmt.Fprintf(cfg.log, "%s: pass %d: %d jobs in %.3f s, %.4g branches/s\n",
			cfg.workload, pass, len(pj), t.wall-w0, float64(t.branches-b0)/(t.wall-w0))
	}
	t.peakMB, t.memSamples = mem.stop()
	return t, nil
}

// setUpOnce times one set-up of cfg.workload, from the workload's start
// until its first timed job could begin, and tears it down again. A fresh
// process running it (--setup-only) times a cold set-up: the inputs the
// warm-up fills are built from scratch, as they are before a run's timed
// phase.
func setUpOnce(cfg config) (float64, tally, error) {
	ctx := context.Background()
	t0 := time.Now()
	if cfg.workload == wlServeMixed {
		d, t, err := setUpDaemon(ctx, cfg)
		if err != nil {
			return 0, t, err
		}
		sec := time.Since(t0).Seconds()
		t.verify(engineFeeds(ctx, d.h.Replay))
		d.close()
		return sec, t, nil
	}
	b := paperGrid
	if cfg.workload == wlTelemetrySweep {
		b = telemetrySweep
	}
	_, release, t, err := setUpRows(ctx, cfg, b)
	if err != nil {
		return 0, t, err
	}
	sec := time.Since(t0).Seconds()
	release()
	return sec, t, nil
}

// setUpReport is what a --setup-only process prints as its last line.
type setUpReport struct {
	SetupS    float64        `json:"setup_s"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	FailedBy  map[string]int `json:"failed_by"`
	FirstErr  string         `json:"first_err"`
}

// childSetUpTimeout bounds one --setup-only process.
const childSetUpTimeout = 60 * time.Second

// childSetUps times cfg.setups-1 more cold set-ups, each in a fresh
// process running this binary with --setup-only, one after another. A
// set-up repeated inside one process would find its inputs already built
// and time only a warm re-run. The children's warm-up arms are checked
// like any other.
func childSetUps(cfg config) ([]float64, tally, error) {
	var (
		secs []float64
		t    tally
	)
	if cfg.setups <= 1 {
		return nil, t, nil
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, t, err
	}
	for i := 1; i < cfg.setups; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), childSetUpTimeout)
		cmd := exec.CommandContext(ctx, exe, "--setup-only", "--workload", cfg.workload,
			"--seed", strconv.FormatInt(cfg.seed, 10), "--scratch", cfg.scratch)
		cmd.Stderr = cfg.log
		out, err := cmd.Output()
		cancel()
		if err != nil {
			return nil, t, fmt.Errorf("set-up process: %w", err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var rep setUpReport
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
			return nil, t, fmt.Errorf("set-up process: %w", err)
		}
		secs = append(secs, rep.SetupS)
		t.add(tally{attempted: rep.Attempted, failed: rep.Failed, failedBy: rep.FailedBy, firstErr: rep.FirstErr}, false)
	}
	return secs, t, nil
}

// daemon is serve-mixed's stack: a shared harness with a checkpoint store,
// the job server, and an obs.Server on a loopback port that mounts the job
// API next to the /events stream WaitJob listens on.
type daemon struct {
	sink *obs.Observer
	h    *experiment.Harness
	s    *serve.Server
	srv  *obs.Server
	base string
}

func bootDaemon(dir string) (*daemon, error) {
	ckDir, err := os.MkdirTemp(dir, "checkpoint-")
	if err != nil {
		return nil, err
	}
	cp, err := experiment.OpenCheckpoint(ckDir)
	if err != nil {
		return nil, err
	}
	sink := obs.New()
	h := experiment.NewHarness(experiment.WithWorkers(armWorkers), experiment.WithCheckpoint(cp), experiment.WithObserver(sink))
	// Quotas: each tenant is a closed loop with one job in flight, far
	// below the default per-tenant quota, so the daemon never sheds.
	s, err := serve.New(serve.Config{Harness: h, Obs: sink, Workers: armWorkers})
	if err != nil {
		h.Close()
		return nil, err
	}
	srv, err := sink.Serve("127.0.0.1:0", obs.WithRootHandler(serve.Handler(s, nil)))
	if err != nil {
		s.Close()
		h.Close()
		return nil, err
	}
	return &daemon{sink: sink, h: h, s: s, srv: srv, base: "http://" + srv.Addr()}, nil
}

func (d *daemon) close() {
	d.srv.Close()
	d.s.Close()
	d.h.Close()
	d.sink.Close()
}

func (d *daemon) client(tenant string) *serveapi.Client {
	return serveapi.NewClient(d.base, serveapi.WithTenant(tenant))
}

// jobOutcome is one served job, checked.
type jobOutcome struct {
	tally
	wall   time.Duration
	status *serveapi.JobStatus // nil when the job was refused or lost
}

// serveJob submits j, waits for it, and checks every arm against the
// offline values. A refused or lost job fails all its arms.
func serveJob(ctx context.Context, c *serveapi.Client, j job, name string, exp expected) jobOutcome {
	arms := j.arms()
	out := jobOutcome{tally: tally{attempted: len(arms)}}
	failAll := func(msg string) jobOutcome {
		for _, a := range arms {
			out.fail(a.Workload, msg)
		}
		return out
	}
	t0 := time.Now()
	ack, err := c.SubmitJob(ctx, j.spec(name))
	if err != nil {
		return failAll("submit: " + err.Error())
	}
	st, err := c.WaitJob(ctx, ack.ID)
	out.wall = time.Since(t0)
	if err != nil {
		return failAll("wait: " + err.Error())
	}
	out.status = st
	out.tally = checkStatus(arms, st, exp)
	return out
}

// checkStatus checks a finished job's arms against the offline values; the
// arms of unstable workloads wait in the tally for the oracle check over
// the daemon's captures.
func checkStatus(arms []arm, st *serveapi.JobStatus, exp expected) tally {
	out := tally{attempted: len(arms)}
	got := map[string]serveapi.ArmResult{}
	for _, r := range st.Arms {
		got[r.Key()] = r
	}
	for _, a := range arms {
		r, ok := got[a.key()]
		switch {
		case !ok:
			out.fail(a.Workload, a.key()+": missing from job status")
		case r.State != serveapi.ArmDone || r.Metrics == nil:
			out.fail(a.Workload, fmt.Sprintf("%s: state %s: %s", a.key(), r.State, r.Error))
		default:
			out.branches += r.Metrics.Branches
			out.checkArm(exp, a, exp.fromWire(a, r.Metrics))
		}
	}
	return out
}

// setUpDaemon boots a daemon and warms it up: serve-mixed's set-up.
func setUpDaemon(ctx context.Context, cfg config) (*daemon, tally, error) {
	d, err := bootDaemon(cfg.scratch)
	if err != nil {
		return nil, tally{}, err
	}
	return d, serveWarmup(ctx, d.client("warmup"), cfg.exp), nil
}

// serveWarmup submits one warm-up job per workload (warmupPred, outside the
// drawn universe): it fills every workload's input and the replay engine's
// captures, and brings the HTTP and SSE paths up.
func serveWarmup(ctx context.Context, c *serveapi.Client, exp expected) tally {
	var t tally
	for _, wl := range warmupRows(nil) {
		j := job{Workloads: wl.Workloads, Preds: []string{warmupPred}, Schemes: []string{"none"}}
		t.add(serveJob(ctx, c, j, "warmup", exp).tally, false)
	}
	return t
}

// serveTenants is serve-mixed's client count, and serveRoundJobs how many
// jobs each tenant submits in one round.
const (
	serveTenants   = 2
	serveRoundJobs = 40
)

// runServeMixed runs rounds until cfg.seconds of timed work have passed and
// the run holds minJobs jobs.
// A round boots a fresh daemon and warms it up (untimed; the first round's
// set-up is the run's cold set-up sample), then two tenants run closed
// loop, each submitting its serveRoundJobs jobs of the round. A fresh
// daemon per round keeps the memo from filling up over the run, so the
// share of dedupe reads is the same in every round and every run, however
// fast the daemon is; the share each round measured is reported.
func runServeMixed(cfg config) (timedRun, error) {
	ctx := context.Background()
	var t timedRun
	perRound := serveRoundJobs
	if cfg.maxJobs > 0 {
		perRound = cfg.maxJobs
	}
	rounds := newServeRounds(cfg.seed, serveTenants, perRound)
	var mem *memPeak
	for round := 0; round == 0 || (cfg.maxJobs == 0 && (t.wall < cfg.seconds || len(t.jobs) < minJobs)); round++ {
		t0 := time.Now()
		d, warm, err := setUpDaemon(ctx, cfg)
		if err != nil {
			return t, err
		}
		if round == 0 {
			t.setup = append(t.setup, time.Since(t0).Seconds())
		}
		t.add(warm, false)
		// Each round starts from a collected heap, as a freshly started
		// daemon would; the first collection also starts the memory sampler.
		if mem == nil {
			mem = startMemPeak()
		} else {
			runtime.GC()
		}

		var mu sync.Mutex
		var wg sync.WaitGroup
		start := time.Now()
		for ten, jobs := range rounds.next() {
			wg.Add(1)
			go func(c *serveapi.Client, jobs []job) {
				defer wg.Done()
				for _, j := range jobs {
					res := serveJob(ctx, c, j, "mixed", cfg.exp)
					mu.Lock()
					t.add(res.tally, true)
					if res.status != nil {
						t.jobs = append(t.jobs, res.wall.Seconds())
					}
					mu.Unlock()
				}
			}(d.client(fmt.Sprintf("tenant-%d", ten)), jobs)
		}
		wg.Wait()
		took := time.Since(start).Seconds()
		t.wall += took
		t.verify(engineFeeds(ctx, d.h.Replay))
		share, err := dedupeShare(ctx, d.client("ledger"))
		d.close()
		if err != nil {
			return t, err
		}
		t.dedupe = append(t.dedupe, share)
		fmt.Fprintf(cfg.log, "%s: round %d: %d jobs in %.3f s, dedupe share %.3f\n",
			cfg.workload, round, serveTenants*perRound, took, share)
	}
	t.peakMB, t.memSamples = mem.stop()
	return t, nil
}

// dedupeShare reads the daemon's tenants ledger: the arms the memo or the
// checkpoint answered without recompute ÷ the arms run, over the tenants
// (the warm-up tenant excluded).
func dedupeShare(ctx context.Context, c *serveapi.Client) (float64, error) {
	tl, err := c.Tenants(ctx)
	if err != nil {
		return 0, err
	}
	var run, saved uint64
	for _, t := range tl.Tenants {
		if t.Tenant != "warmup" {
			run += t.ArmsRun
			saved += t.ArmsSaved
		}
	}
	return ratio(float64(saved), float64(run)), nil
}

// memPeak samples the Go runtime's mapped, unreleased memory every few
// milliseconds from a fresh garbage collection on, and keeps the maximum:
// the workload's peak footprint, excluding what set-up left for the
// collector.
type memPeak struct {
	done    chan struct{}
	stopped chan struct{}
	peak    uint64
	n       int
}

var memSampleNames = []string{"/memory/classes/total:bytes", "/memory/classes/heap/released:bytes"}

func startMemPeak() *memPeak {
	runtime.GC()
	m := &memPeak{done: make(chan struct{}), stopped: make(chan struct{})}
	s := make([]metrics.Sample, len(memSampleNames))
	for i, n := range memSampleNames {
		s[i].Name = n
	}
	go func() {
		defer close(m.stopped)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			m.peak = max(m.peak, s[0].Value.Uint64()-s[1].Value.Uint64())
			m.n++
			select {
			case <-m.done:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// stop ends sampling and returns the peak in MB and the sample count.
func (m *memPeak) stop() (float64, int) {
	close(m.done)
	<-m.stopped
	return float64(m.peak) / (1 << 20), m.n
}
