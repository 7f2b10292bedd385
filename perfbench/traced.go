package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"branchsim/internal/core"
	"branchsim/internal/experiment"
	"branchsim/internal/obs"
	"branchsim/internal/predictor"
	"branchsim/internal/profile"
	"branchsim/internal/sim"
	"branchsim/internal/telemetry"
	"branchsim/internal/trace"
	"branchsim/internal/workload"
	"branchsim/serveapi"
)

// The traced run replays a sample of each workload's jobs twice: once as
// the untraced run executes them (through the harness or the daemon, no
// spans), and once decomposed into explicit calls to each layer's public
// functions, one span per call. Spans on the job's path make up the ledger;
// probe spans are counterfactual measurements (the workload without its
// capture tee, a kernel without collision tracking, one collector alone)
// that split a path span between layers or answer a per-layer question,
// and stay outside the ledger. Both executions run a job's arms one after
// another, so the ledger's self-times add up to wall time.

// chunkTarget mirrors the replay engine's chunk seal threshold.
const chunkTarget = 64 << 10

// span is one timed call.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a job's root span
	Job    string `json:"job"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Probe  bool   `json:"probe,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps spans in memory until the run ends. Not safe for concurrent
// use: the traced run is sequential.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(job string, parent int, name, layer string, probe bool) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Job: job, Name: name, Layer: layer,
		Probe: probe, Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

// end closes span id and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	s := &t.spans[id-1]
	s.End = time.Since(t.t0).Nanoseconds()
	return s.seconds()
}

// call runs fn inside a span and returns the span's duration in seconds.
func (t *tracer) call(job string, parent int, name, layer string, probe bool, fn func()) float64 {
	id := t.begin(job, parent, name, layer, probe)
	fn()
	return t.end(id)
}

// pathSeconds is a job root span's duration minus its probe children: the
// traced job's own wall time.
func (t *tracer) pathSeconds(root int) float64 {
	d := t.spans[root-1].seconds()
	for _, s := range t.spans[root:] {
		if s.Parent == root && s.Probe {
			d -= s.seconds()
		}
	}
	return d
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stream is one workload execution captured as decoded blocks, the form
// the replay engine's decoded-block cache holds.
type stream struct {
	pcs   []uint64
	taken []bool
	ops   []uint64
	tail  uint64 // straight-line instructions after the last branch
}

func (s *stream) RunBlock(pcs []uint64, taken []bool, ops []uint64) {
	s.pcs = append(s.pcs, pcs...)
	s.taken = append(s.taken, taken...)
	s.ops = append(s.ops, ops...)
}

func (s *stream) Ops(n uint64) { s.tail += n }

func (s *stream) branches() float64 { return float64(len(s.pcs)) }

// feed delivers the stream to sink in blocks of trace.DefaultBlockEvents.
func (s *stream) feed(sink trace.BlockSink) {
	for i := 0; i < len(s.pcs); i += trace.DefaultBlockEvents {
		e := min(i+trace.DefaultBlockEvents, len(s.pcs))
		sink.RunBlock(s.pcs[i:e], s.taken[i:e], s.ops[i:e])
	}
	if s.tail > 0 {
		sink.Ops(s.tail)
	}
}

// replay delivers the stream one event at a time.
func (s *stream) replay(rec trace.Recorder) {
	for i, pc := range s.pcs {
		if s.ops[i] != 0 {
			rec.Ops(s.ops[i])
		}
		rec.Branch(pc, s.taken[i])
	}
	if s.tail > 0 {
		rec.Ops(s.tail)
	}
}

// kernelSink drives a batch kernel over a stream's blocks.
type kernelSink struct {
	k  predictor.BatchSim
	bm predictor.BlockMetrics
}

func (k *kernelSink) RunBlock(pcs []uint64, taken []bool, _ []uint64) {
	k.k.RunBlock(pcs, taken, &k.bm)
}
func (k *kernelSink) Ops(uint64) {}

// biasRecorder fills a bias-only profile, as the harness's Static_95
// profile arm does.
type biasRecorder struct{ db *profile.DB }

func (b biasRecorder) Branch(pc uint64, taken bool) {
	b.db.Record(pc, taken)
	b.db.Instructions++
}

func (b biasRecorder) Ops(n uint64) { b.db.Instructions += n }

type nullSink struct{}

func (nullSink) RunBlock([]uint64, []bool, []uint64) {}
func (nullSink) Ops(uint64)                          {}

// ledger is one workload's layer split: on-path self time per layer next
// to the same jobs' untraced and traced wall time.
type ledger struct {
	untraced, traced float64
	layers           map[string]float64
}

func (l *ledger) add(layer string, sec float64) {
	if l.layers == nil {
		l.layers = map[string]float64{}
	}
	l.layers[layer] += sec
}

func (l *ledger) sum() float64 {
	s := 0.0
	for _, v := range l.layers {
		s += v
	}
	return s
}

// acc gathers the per-layer work counts and times the metrics divide.
type acc struct {
	branches, exec, tee        float64 // workload layer, grid and telemetry streams
	encode, crcSec, crcKB      float64 // trace layer
	decode, bytes              float64
	captureSec                 float64 // workload + encode + seal checksum, grid jobs
	captures, gridJobs, memMB  float64
	kernel, kernelUn, kernelBr map[string]float64
	fold, foldBr               float64
	profile, profileBr         float64
	selectSec, selects         float64
	staticExecs, allExecs      float64
	combined, combinedBr       float64
	telBr                      float64
	telInterval, telTable      float64
	telTopK, telConf           float64
	records, telJobs           float64
	journal, journalBytes      float64
	publish, frames            float64
	memoHitSec, memoHits       float64
	sfHits, sfArms             float64
	ckSec, ckSaves             float64
	submit, wait, serveJobs    float64
	armsRun, armsSaved         float64
	shed, admitted             float64
}

// tracedRun is the state of one --trace 1 invocation.
type tracedRun struct {
	cfg     config
	ctx     context.Context
	tr      tracer
	a       acc
	ledgers map[string]*ledger
	t       tally
	// err is the first error a layer call returned; the traced run stops
	// once the current workload's sample is done.
	err error
}

func (r *tracedRun) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// check counts one arm result against the expected metrics. An unstable
// workload's arm then waits for the oracle check over its job's capture.
func (r *tracedRun) check(a arm, m sim.Metrics) {
	r.t.attempted++
	r.t.checkArm(r.cfg.exp, a, m)
}

// runTraced replays the sampled jobs of every workload — the requested one
// first — and prints the per-layer metrics. Spans are written to spansPath
// at the end.
func runTraced(cfg config, stdout io.Writer, spansPath string) (result, error) {
	r := &tracedRun{cfg: cfg, ctx: context.Background(), tr: tracer{t0: time.Now()}, ledgers: map[string]*ledger{}}
	r.a.kernel, r.a.kernelUn, r.a.kernelBr = map[string]float64{}, map[string]float64{}, map[string]float64{}
	order := []string{cfg.workload}
	for _, w := range workloads {
		if w != cfg.workload {
			order = append(order, w)
		}
	}
	for _, w := range order {
		var err error
		switch w {
		case wlPaperGrid:
			err = r.paperGrid()
		case wlTelemetrySweep:
			err = r.telemetrySweep()
		case wlServeMixed:
			err = r.serveMixed()
		}
		if err != nil {
			return result{}, fmt.Errorf("traced %s: %w", w, err)
		}
	}
	if err := r.tr.write(spansPath); err != nil {
		return result{}, err
	}
	ms := r.metrics()
	fmt.Fprintf(stdout, "traced: %d spans written to %s\n", len(r.tr.spans), spansPath)
	printTally(stdout, "traced", r.t)
	printMetrics(stdout, ms, nil)
	return r.t.result(ms), nil
}

// sampleRows picks, for each spec, the first row of the seeded first pass
// that uses it — every spec is traced once, on a workload the seed
// chooses — up to cfg.sample rows.
func (r *tracedRun) sampleRows(specs, schemes []string) []job {
	seen := map[string]bool{}
	var out []job
	for _, j := range rows(r.cfg.seed, 0, specs, schemes) {
		if !seen[j.Preds[0]] && len(out) < r.cfg.sample {
			seen[j.Preds[0]] = true
			out = append(out, j)
		}
	}
	return out
}

// capture runs the workload into a stream (span workload.capture), encodes
// it into chunks (trace.encode) and checksums each chunk once, as the
// replay engine does when it seals a chunk (trace.crc). It also takes the
// workload probes: execution into trace.Counts alone, and through the tee
// a capturing arm uses (counts plus chunk encoding), and the decode probe.
func (r *tracedRun) capture(jobID string, root int, wl string, l *ledger) (*stream, float64) {
	prog, err := workload.Get(wl)
	if err != nil {
		r.fail(err)
		return &stream{}, 0
	}
	var counts trace.Counts
	exec := probe(func() float64 {
		return r.tr.call(jobID, root, "workload.exec", "workload", true, func() {
			counts = trace.Counts{}
			err = workload.RunProgram(r.ctx, prog, input, &counts)
		})
	})
	// Sized from the exec probe, so the capture span measures the workload
	// and the block copy, not slice regrowth.
	n := counts.Branches
	s := &stream{pcs: make([]uint64, 0, n), taken: make([]bool, 0, n), ops: make([]uint64, 0, n)}
	capSec := r.tr.call(jobID, root, "workload.capture", "workload", false, func() {
		b := trace.NewBatcher(s, 0)
		err = workload.RunProgram(r.ctx, prog, input, b)
		b.Flush()
	})
	if err != nil {
		r.fail(err)
	}
	var chunks [][]byte
	encSec := r.tr.call(jobID, root, "trace.encode", "trace", false, func() {
		var w trace.ChunkWriter
		for i, pc := range s.pcs {
			if s.ops[i] != 0 {
				w.Ops(s.ops[i])
			}
			w.Branch(pc, s.taken[i])
			if w.Len() >= chunkTarget {
				chunks = append(chunks, w.Cut())
			}
		}
		w.Ops(s.tail)
		if c := w.Cut(); c != nil {
			chunks = append(chunks, c)
		}
	})
	nbytes := 0
	for _, c := range chunks {
		nbytes += len(c)
	}
	crcSec := r.tr.call(jobID, root, "trace.crc", "trace", false, func() {
		for _, c := range chunks {
			trace.Checksum(c)
		}
	})
	l.add("workload", capSec)
	l.add("trace", encSec+crcSec)

	tee := probe(func() float64 {
		return r.tr.call(jobID, root, "workload.tee", "workload", true, func() {
			var c trace.Counts
			var w trace.ChunkWriter
			err = workload.RunProgram(r.ctx, prog, input, trace.Tee(&c, &w))
		})
	})
	dec := probe(func() float64 {
		return r.tr.call(jobID, root, "trace.decode", "trace", true, func() {
			var buf trace.BlockBuf
			for _, c := range chunks {
				if derr := trace.DecodeChunkBlocks(c, nullSink{}, &buf); derr != nil {
					err = derr
				}
			}
		})
	})
	if err != nil {
		r.fail(err)
	}
	br := s.branches()
	r.a.branches += br
	r.a.exec += exec
	r.a.tee += tee
	r.a.encode += encSec
	r.a.crcSec += crcSec
	r.a.crcKB += float64(nbytes) / 1024
	r.a.decode += dec
	r.a.bytes += float64(nbytes)
	return s, capSec + encSec + crcSec
}

// probeRuns is how many times each probe repeats; a probe reports the
// median, so one interrupted run does not skew a layer's split.
const probeRuns = 3

// probe runs fn probeRuns times and returns the median of its results.
func probe(fn func() float64) float64 {
	xs := make([]float64, probeRuns)
	for i := range xs {
		xs[i] = fn()
	}
	return median(xs)
}

// kernelMinBranches is the least work one kernel probe times: small
// streams are fed repeatedly, so a kernel's ns per branch does not hinge
// on a sub-millisecond timing.
const kernelMinBranches = 1 << 20

// kernelProbe times the predictor's batch kernel alone over the stream, on
// a fresh predictor, with collision tracking on (the benchmark's setting)
// or off, and returns the seconds one pass over the stream takes.
func (r *tracedRun) kernelProbe(jobID string, root int, spec string, s *stream, tracked bool) float64 {
	name := "predictor.kernel_untracked"
	if tracked {
		name = "predictor.kernel"
	}
	reps := 1 + kernelMinBranches/max(len(s.pcs), 1)
	return probe(func() float64 {
		p := r.newPred(spec)
		if c, ok := p.(predictor.Collider); ok && tracked {
			c.EnableCollisionTracking()
		}
		k, _ := predictor.Batch(p)
		return r.tr.call(jobID, root, name, "predictor", true, func() {
			for i := 0; i < reps; i++ {
				s.feed(&kernelSink{k: k})
			}
		}) / float64(reps)
	})
}

// simulate runs one arm's runner over the stream in a span and checks the
// result when a is non-nil.
func (r *tracedRun) simulate(jobID string, root int, name, layer string, probe bool, s *stream, wl string, p predictor.Predictor, a *arm, opts ...sim.Option) float64 {
	run := sim.NewRunner(p, append([]sim.Option{sim.WithLabels(wl, input), sim.WithCollisions()}, opts...)...)
	sec := r.tr.call(jobID, root, name, layer, probe, func() {
		s.feed(run)
		run.Metrics()
	})
	if a != nil {
		r.check(*a, run.Metrics())
	}
	return sec
}

func (r *tracedRun) newPred(spec string) predictor.Predictor {
	p, err := predictor.New(spec)
	if err != nil {
		r.fail(err)
		return predictor.AlwaysTaken{}
	}
	return p
}

// gridRowTraced is one paper-grid row, decomposed: capture; the bias
// profile; the accuracy profile; the Static_95 and Static_Acc selections;
// the none arm; the two combined arms.
func (r *tracedRun) gridRowTraced(j job, l *ledger) {
	wl, spec := j.Workloads[0], j.Preds[0]
	jobID := "paper-grid/" + wl + "/" + spec
	root := r.tr.begin(jobID, 0, "job", "job", false)
	s, capSec := r.capture(jobID, root, wl, l)
	br := s.branches()

	var biasDB *profile.DB
	bias := r.tr.call(jobID, root, "profile.bias", "profile", false, func() {
		biasDB = profile.NewDB(wl, input)
		s.replay(biasRecorder{biasDB})
	})
	accDB := profile.NewDB(wl, input)
	profiled := r.simulate(jobID, root, "sim.profiled", "sim", false, s, wl, r.newPred(spec), nil, sim.WithProfile(accDB))
	hints := map[string]*core.HintDB{}
	for _, sel := range []struct {
		scheme string
		db     *profile.DB
	}{{"static95", biasDB}, {"staticacc", accDB}} {
		s, err := core.SelectorByName(sel.scheme)
		if err != nil {
			r.fail(err)
			continue
		}
		sec := r.tr.call(jobID, root, "core.select."+sel.scheme, "core", false, func() {
			hints[sel.scheme], err = s.Select(sel.db)
		})
		if err != nil {
			r.fail(err)
		}
		r.a.selectSec += sec
		r.a.selects++
		l.add("core", sec)
	}

	none := arm{wl, spec, "none"}
	plain := r.simulate(jobID, root, "sim.none", "sim", false, s, wl, core.NewCombined(r.newPred(spec), nil, core.NoShift), &none)
	kern := r.kernelProbe(jobID, root, spec, s, true)
	kernUn := r.kernelProbe(jobID, root, spec, s, false)
	for _, scheme := range []string{"static95", "staticacc"} {
		a := arm{wl, spec, scheme}
		c := core.NewCombined(r.newPred(spec), hints[scheme], core.NoShift)
		sec := r.simulate(jobID, root, "core.combined."+scheme, "core", false, s, wl, c, &a)
		st := c.Stats()
		r.a.staticExecs += float64(st.StaticExecs)
		r.a.allExecs += float64(st.StaticExecs + st.DynamicExecs)
		r.a.combined += sec
		r.a.combinedBr += br
		l.add("core", sec)
	}
	r.tr.end(root)
	r.t.verify(streamFeeds(s))

	// The none arm and the accuracy profile each run the kernel once: the
	// kernel probe is the predictor's share of both, the rest of the plain
	// run is the runner's fold, and what profiling adds on top of a plain
	// run is the profile layer's.
	prof := bias + profiled - plain
	l.add("predictor", 2*kern)
	l.add("sim", 2*(plain-kern))
	l.add("profile", prof)
	r.a.kernel[spec] += kern
	r.a.kernelUn[spec] += kernUn
	r.a.kernelBr[spec] += br
	r.a.fold += plain - kern
	r.a.foldBr += br
	r.a.profile += prof
	r.a.profileBr += 2 * br
	r.a.captureSec += capSec
	l.traced += r.tr.pathSeconds(root)
}

// rowUntraced runs the row as the untraced workload does, arms one after
// another, on a fresh harness. With no observer in opts, one is attached
// to count the row's captures and the replay engine's encoded bytes.
func (r *tracedRun) rowUntraced(j job, l *ledger, opts ...experiment.HarnessOption) (captures uint64, memBytes int64) {
	sink := obs.New()
	defer sink.Close()
	h := experiment.NewHarness(append([]experiment.HarnessOption{experiment.WithWorkers(armWorkers), experiment.WithObserver(sink)}, opts...)...)
	defer h.Close()
	t0 := time.Now()
	for _, a := range j.arms() {
		m, err := h.Run(r.ctx, harnessArm(a))
		if err != nil {
			r.t.attempted++
			r.t.fail(a.Workload, err.Error())
			continue
		}
		r.check(a, m)
	}
	l.untraced += time.Since(t0).Seconds()
	r.t.verify(engineFeeds(r.ctx, h.Replay))
	return sink.Counter(obs.MReplayCaptures).Value(), sink.Gauge(obs.MReplayMemBytes).Value()
}

func (r *tracedRun) warmup(schemes []string, opts ...experiment.HarnessOption) {
	for _, j := range warmupRows(schemes) {
		res, _ := runRow(r.ctx, j, r.cfg.exp, opts...)
		r.t.add(res, false)
	}
}

func (r *tracedRun) paperGrid() error {
	l := &ledger{}
	r.ledgers[wlPaperGrid] = l
	r.warmup(gridSchemes)
	for _, j := range r.sampleRows(gridSpecs, gridSchemes) {
		captures, memBytes := r.rowUntraced(j, l)
		r.a.captures += float64(captures)
		r.a.memMB = max(r.a.memMB, float64(memBytes)/(1<<20))
		r.a.gridJobs++
		r.gridRowTraced(j, l)
	}
	return r.err
}

// telemetryRowTraced is one telemetry-sweep row, decomposed: capture; the
// telemetered run (records buffered, live copies published); the journal
// writes. Probes: the plain run, each collector alone, and publishing the
// records to a subscribed bus.
func (r *tracedRun) telemetryRowTraced(j job, l *ledger, journal *obs.Journal, jf *os.File) {
	wl, spec := j.Workloads[0], j.Preds[0]
	jobID := "telemetry-sweep/" + wl + "/" + spec
	root := r.tr.begin(jobID, 0, "job", "job", false)
	s, _ := r.capture(jobID, root, wl, l)
	br := s.branches()
	a := arm{wl, spec, "none"}

	// The collector publishes live copies of its records to an observer
	// without a journal, so Finish buffers them; the journal writes are
	// their own span.
	live := obs.New()
	defer live.Close()
	tel := telemetry.New(telemetryConfig, live)
	telSec := r.simulate(jobID, root, "telemetry.run", "telemetry", false, s, wl,
		core.NewCombined(r.newPred(spec), nil, core.NoShift), &a, sim.WithTelemetry(tel))
	recs := journalRecords(tel.Finish())
	before, _ := jf.Seek(0, io.SeekCurrent)
	jSec := r.tr.call(jobID, root, "obs.journal", "obs", false, func() {
		for _, rec := range recs {
			if err := journal.Write(rec); err != nil {
				r.fail(err)
				return
			}
		}
	})
	after, _ := jf.Seek(0, io.SeekCurrent)

	alone := func(name, layer string, cfg telemetry.Config) float64 {
		return probe(func() float64 {
			return r.simulate(jobID, root, name, layer, true, s, wl, core.NewCombined(r.newPred(spec), nil, core.NoShift), nil,
				sim.WithTelemetry(telemetry.New(cfg, nil)))
		})
	}
	plain := alone("sim.plain", "sim", telemetry.Config{})
	kern := r.kernelProbe(jobID, root, spec, s, true)
	iv := telemetryConfig.Interval
	interval := alone("telemetry.interval", "telemetry", telemetry.Config{Interval: iv})
	table := alone("telemetry.table_stats", "telemetry", telemetry.Config{Interval: iv, TableStats: true})
	topk := alone("telemetry.topk", "telemetry", telemetry.Config{Interval: iv, TopK: telemetryConfig.TopK})
	conf := alone("telemetry.confidence", "telemetry", telemetry.Config{Interval: iv, Confidence: true})
	bus := obs.New()
	// Room for every frame the probe publishes, so none is dropped.
	sub := bus.Subscribe(probeRuns*len(recs) + 1)
	pub := probe(func() float64 {
		return r.tr.call(jobID, root, "obs.publish", "obs", true, func() {
			for _, rec := range recs {
				bus.Publish(rec)
			}
		})
	})
	sub.Close()
	bus.Close()
	r.tr.end(root)
	r.t.verify(streamFeeds(s))

	l.add("predictor", kern)
	l.add("sim", plain-kern)
	l.add("telemetry", telSec-plain)
	l.add("obs", jSec)
	r.a.telBr += br
	r.a.telInterval += interval - plain
	r.a.telTable += table - interval
	r.a.telTopK += topk - interval
	r.a.telConf += conf - interval
	r.a.records += float64(len(recs))
	r.a.telJobs++
	r.a.journal += jSec
	r.a.journalBytes += float64(after - before)
	r.a.publish += pub
	r.a.frames += float64(len(recs))
	l.traced += r.tr.pathSeconds(root)
}

// journalRecords lists a collector's records in the order Finish journals
// them.
func journalRecords(recs telemetry.Records) []obs.JournalRecord {
	var out []obs.JournalRecord
	for i := range recs.Intervals {
		out = append(out, &recs.Intervals[i])
	}
	for i := range recs.TableStats {
		out = append(out, &recs.TableStats[i])
	}
	for i := range recs.TaggedStats {
		out = append(out, &recs.TaggedStats[i])
	}
	for i := range recs.Confidence {
		out = append(out, &recs.Confidence[i])
	}
	if recs.TopK != nil {
		out = append(out, recs.TopK)
	}
	return out
}

func (r *tracedRun) telemetrySweep() error {
	l := &ledger{}
	r.ledgers[wlTelemetrySweep] = l
	opts, release, err := telemetrySetUp(r.cfg.scratch)
	if err != nil {
		return err
	}
	defer release()
	jf, err := os.CreateTemp(r.cfg.scratch, "traced-journal-*.jsonl")
	if err != nil {
		return err
	}
	defer os.Remove(jf.Name())
	defer jf.Close()
	journal := obs.NewJournal(jf)
	r.warmup([]string{"none"}, opts...)
	for _, j := range r.sampleRows(telemetrySpecs, []string{"none"}) {
		r.rowUntraced(j, l, opts...)
		r.telemetryRowTraced(j, l, journal, jf)
	}
	return r.err
}

// serveSample is the traced serve-mixed job list: the first round, n jobs
// per tenant, the tenants alternating, run one at a time.
func serveSample(seed int64, n int) []job {
	round := newServeRounds(seed, serveTenants, serveRoundJobs).next()
	var out []job
	for i := 0; i < n; i++ {
		for _, jobs := range round {
			out = append(out, jobs[i])
		}
	}
	return out
}

// serveJobs runs the sample through a fresh daemon; with spans, each job's
// submit and wait are spans and the tenants ledger is read at the end.
func (r *tracedRun) serveJobs(jobs []job, l *ledger, traced bool) error {
	d, err := bootDaemon(r.cfg.scratch)
	if err != nil {
		return err
	}
	defer d.close()
	r.t.add(serveWarmup(r.ctx, d.client("warmup"), r.cfg.exp), false)
	runtime.GC() // as the untraced rounds start
	clients := []*serveapi.Client{d.client("tenant-0"), d.client("tenant-1")}
	for i, j := range jobs {
		c := clients[i%len(clients)]
		if !traced {
			t0 := time.Now()
			r.t.add(serveJob(r.ctx, c, j, "mixed", r.cfg.exp).tally, false)
			l.untraced += time.Since(t0).Seconds()
			continue
		}
		jobID := fmt.Sprintf("serve-mixed/%d", i)
		root := r.tr.begin(jobID, 0, "job", "job", false)
		var (
			ack *serveapi.Submitted
			st  *serveapi.JobStatus
		)
		sub := r.tr.call(jobID, root, "serve.submit", "serve", false, func() { ack, err = c.SubmitJob(r.ctx, j.spec("mixed")) })
		wait := 0.0
		if err == nil {
			wait = r.tr.call(jobID, root, "serve.wait", "serve", false, func() { st, err = c.WaitJob(r.ctx, ack.ID) })
		}
		r.tr.end(root)
		if err != nil {
			res := tally{attempted: len(j.arms())}
			for _, a := range j.arms() {
				res.fail(a.Workload, err.Error())
			}
			r.t.add(res, false)
			continue
		}
		r.t.add(checkStatus(j.arms(), st, r.cfg.exp), false)
		l.add("serve", sub+wait)
		l.traced += r.tr.pathSeconds(root)
		r.a.submit += sub
		r.a.wait += wait
		r.a.serveJobs++
	}
	r.t.verify(engineFeeds(r.ctx, d.h.Replay))
	if traced {
		tl, err := clients[0].Tenants(r.ctx)
		if err != nil {
			return err
		}
		for _, t := range tl.Tenants {
			if t.Tenant == "warmup" {
				continue
			}
			r.a.armsRun += float64(t.ArmsRun)
			r.a.armsSaved += float64(t.ArmsSaved)
			r.a.shed += float64(t.Shed)
			r.a.admitted += float64(t.Jobs)
		}
	}
	return nil
}

// experimentProbes runs the sample's arms through an offline harness in
// job order (singleflight hits are repeats), then recalls every distinct
// arm once more (pure memo reads: the harness's per-arm overhead), and
// times saving each distinct result to a checkpoint.
func (r *tracedRun) experimentProbes(jobs []job) error {
	h := experiment.NewHarness(experiment.WithWorkers(armWorkers))
	defer h.Close()
	dir, err := os.MkdirTemp(r.cfg.scratch, "probe-checkpoint-")
	if err != nil {
		return err
	}
	cp, err := experiment.OpenCheckpoint(dir)
	if err != nil {
		return err
	}
	results := map[arm]sim.Metrics{}
	var distinct []arm
	for i, j := range jobs {
		jobID := fmt.Sprintf("serve-mixed/probe/%d", i)
		for _, a := range j.arms() {
			var m sim.Metrics
			var src string
			r.tr.call(jobID, 0, "experiment.run", "experiment", true, func() { m, src, err = h.RunAttributed(r.ctx, harnessArm(a)) })
			if err != nil {
				return err
			}
			r.a.sfArms++
			if src == obs.SourceSingleflight {
				r.a.sfHits++
			}
			if _, ok := results[a]; !ok {
				results[a] = m
				distinct = append(distinct, a)
			}
		}
	}
	for _, a := range distinct {
		r.a.memoHitSec += r.tr.call("serve-mixed/probe/memo", 0, "experiment.memo", "experiment", true, func() {
			_, _, err = h.RunAttributed(r.ctx, harnessArm(a))
		})
		if err != nil {
			return err
		}
		r.a.memoHits++
		r.a.ckSec += r.tr.call("serve-mixed/probe/checkpoint", 0, "experiment.checkpoint", "experiment", true, func() {
			err = cp.SaveRun(a.key(), results[a])
		})
		if err != nil {
			return err
		}
		r.a.ckSaves++
	}
	return nil
}

func (r *tracedRun) serveMixed() error {
	l := &ledger{}
	r.ledgers[wlServeMixed] = l
	jobs := serveSample(r.cfg.seed, r.cfg.sample)
	if err := r.serveJobs(jobs, l, false); err != nil {
		return err
	}
	if err := r.serveJobs(jobs, l, true); err != nil {
		return err
	}
	return r.experimentProbes(jobs)
}

// ratio is num/den, 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func (r *tracedRun) metrics() map[string]metric {
	a := &r.a
	ns := 1e9
	ms := map[string]metric{
		"workload.exec_ns_per_branch":         {ratio(a.exec*ns, a.branches), "ns/branch"},
		"workload.tee_ns_per_branch":          {ratio((a.tee-a.exec)*ns, a.branches), "ns/branch"},
		"trace.encode_ns_per_branch":          {ratio(a.encode*ns, a.branches), "ns/branch"},
		"trace.crc_ns_per_kb":                 {ratio(a.crcSec*ns, a.crcKB), "ns/KB"},
		"trace.decode_ns_per_branch":          {ratio(a.decode*ns, a.branches), "ns/branch"},
		"trace.bytes_per_branch":              {ratio(a.bytes, a.branches), "B/branch"},
		"replay.capture_share":                {ratio(a.captureSec, r.ledgers[wlPaperGrid].sum()), "ratio"},
		"replay.captures_per_job":             {ratio(a.captures, a.gridJobs), "count"},
		"replay.mem_peak_mb":                  {a.memMB, "MB"},
		"sim.fold_ns_per_branch":              {ratio(a.fold*ns, a.foldBr), "ns/branch"},
		"profile.ns_per_branch":               {ratio(a.profile*ns, a.profileBr), "ns/branch"},
		"profile.share":                       {ratio(r.ledgers[wlPaperGrid].layers["profile"], r.ledgers[wlPaperGrid].sum()), "ratio"},
		"core.select_ms":                      {ratio(a.selectSec*1e3, a.selects), "ms"},
		"core.static_share":                   {ratio(a.staticExecs, a.allExecs), "ratio"},
		"core.combined_ns_per_branch":         {ratio(a.combined*ns, a.combinedBr), "ns/branch"},
		"telemetry.interval_ns_per_branch":    {ratio(a.telInterval*ns, a.telBr), "ns/branch"},
		"telemetry.table_stats_ns_per_branch": {ratio(a.telTable*ns, a.telBr), "ns/branch"},
		"telemetry.topk_ns_per_branch":        {ratio(a.telTopK*ns, a.telBr), "ns/branch"},
		"telemetry.confidence_ns_per_branch":  {ratio(a.telConf*ns, a.telBr), "ns/branch"},
		"telemetry.records_per_job":           {ratio(a.records, a.telJobs), "records/job"},
		"obs.journal_us_per_record":           {ratio(a.journal*1e6, a.records), "us/record"},
		"obs.journal_bytes_per_job":           {ratio(a.journalBytes, a.telJobs), "B/job"},
		"obs.publish_us_per_frame":            {ratio(a.publish*1e6, a.frames), "us/frame"},
		"experiment.overhead_ms_per_arm":      {ratio(a.memoHitSec*1e3, a.memoHits), "ms"},
		"experiment.singleflight_hit_ratio":   {ratio(a.sfHits, a.sfArms), "ratio"},
		"experiment.checkpoint_ms_per_arm":    {ratio(a.ckSec*1e3, a.ckSaves), "ms"},
		"serve.submit_ms":                     {ratio(a.submit*1e3, a.serveJobs), "ms"},
		"serve.wait_ms":                       {ratio(a.wait*1e3, a.serveJobs), "ms"},
		"serve.dedupe_ratio":                  {ratio(a.armsSaved, a.armsRun), "ratio"},
		"serve.shed_ratio":                    {ratio(a.shed, a.shed+a.admitted), "ratio"},
	}
	native := 0
	for _, s := range gridSpecs {
		spec := sized(s, gridSize)
		ms["predictor.kernel_ns_per_branch."+s] = metric{ratio(a.kernel[spec]*ns, a.kernelBr[spec]), "ns/branch"}
		ms["predictor.kernel_untracked_ns_per_branch."+s] = metric{ratio(a.kernelUn[spec]*ns, a.kernelBr[spec]), "ns/branch"}
		if _, ok := predictor.Batch(predictor.MustNew(spec)); ok {
			native++
		}
	}
	ms["predictor.native_kernels"] = metric{float64(native), "count"}
	for _, w := range workloads {
		l := r.ledgers[w]
		ms["residual_share."+w] = metric{ratio(l.untraced-l.sum(), l.untraced), "ratio"}
		ms["trace_overhead_share."+w] = metric{ratio(l.traced-l.untraced, l.untraced), "ratio"}
	}
	return ms
}
