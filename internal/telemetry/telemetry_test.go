package telemetry

import (
	"bytes"
	"testing"

	"branchsim/internal/obs"
	"branchsim/internal/predictor"
)

func TestConfigDefaults(t *testing.T) {
	if (Config{}).Enabled() {
		t.Fatal("zero config reports enabled")
	}
	if New(Config{}, nil) != nil {
		t.Fatal("disabled config built a collector")
	}
	c := New(Config{TableStats: true, TopK: -1}, nil)
	if c == nil {
		t.Fatal("enabled config built no collector")
	}
	got := c.Config()
	if got.Interval != DefaultInterval || got.TopK != DefaultTopK || got.SiteCap != DefaultSiteCap {
		t.Errorf("defaults = %+v", got)
	}
}

func TestNilCollectorNoops(t *testing.T) {
	var c *Collector
	c.Bind(nil, "w", "i", "p", false)
	c.Branch(0x40, true, true, false, predictor.Confidence{})
	c.Ops(10)
	if r := c.Finish(); r.Intervals != nil || r.TopK != nil {
		t.Fatalf("nil collector returned records: %+v", r)
	}
	if c.Config().Enabled() {
		t.Fatal("nil collector reports enabled config")
	}
}

// feed drives a deterministic synthetic stream: nSites branches round-robin,
// each branch taken unless its site index is divisible by 3, with opsPer
// straight-line instructions between branches.
func feed(c *Collector, events, nSites int, opsPer uint64) (branches, misp uint64) {
	for i := 0; i < events; i++ {
		site := i % nSites
		pc := 0x1000 + uint64(site)*4
		taken := site%3 != 0
		correct := i%7 != 0 // synthetic misprediction pattern
		collided := i%5 == 0
		c.Branch(pc, taken, correct, collided, predictor.Confidence{})
		branches++
		if !correct {
			misp++
		}
		c.Ops(opsPer)
	}
	return branches, misp
}

func TestIntervalDeltasReconstructTotals(t *testing.T) {
	var buf bytes.Buffer
	o := obs.New(obs.WithJournal(obs.NewJournal(&buf)))
	c := New(Config{Interval: 1000, TopK: 8}, o)
	c.Bind(predictor.NewBimodal(256), "w", "in", "bimodal:1KB", true)

	branches, misp := feed(c, 5000, 97, 3)
	recs := c.Finish()

	wantInstr := branches * 4 // 1 per branch + 3 ops each
	var dInstr, dBr, dMisp, dCol uint64
	lastSeq := -1
	for _, r := range recs.Intervals {
		if r.Seq != lastSeq+1 {
			t.Fatalf("interval seq %d after %d", r.Seq, lastSeq)
		}
		lastSeq = r.Seq
		dInstr += r.DInstructions
		dBr += r.DBranches
		dMisp += r.DMispredicts
		dCol += r.DConstructive + r.DDestructive
		if !r.CollisionsTracked {
			t.Fatalf("interval %d lost the collisions-tracked flag", r.Seq)
		}
		if r.Instructions != dInstr {
			t.Fatalf("interval %d cumulative %d != running delta sum %d", r.Seq, r.Instructions, dInstr)
		}
	}
	if dInstr != wantInstr {
		t.Errorf("delta instructions sum = %d, want %d", dInstr, wantInstr)
	}
	if dBr != branches {
		t.Errorf("delta branches sum = %d, want %d", dBr, branches)
	}
	if dMisp != misp {
		t.Errorf("delta mispredicts sum = %d, want %d", dMisp, misp)
	}
	if r := recs.Intervals[0]; r.DInstructions < 1000 {
		t.Errorf("first interval closed after only %d instructions", r.DInstructions)
	}

	// Everything also landed in the journal, parseable.
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	parsed, err := obs.ReadRecords(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Intervals) != len(recs.Intervals) {
		t.Errorf("journal has %d intervals, collector returned %d", len(parsed.Intervals), len(recs.Intervals))
	}
	if len(parsed.TopK) != 1 {
		t.Fatalf("journal has %d topk records, want 1", len(parsed.TopK))
	}
}

func TestFinishIdempotent(t *testing.T) {
	var buf bytes.Buffer
	o := obs.New(obs.WithJournal(obs.NewJournal(&buf)))
	c := New(Config{Interval: 100}, o)
	c.Bind(predictor.NewBimodal(64), "w", "i", "p", false)
	feed(c, 500, 13, 0)
	first := c.Finish()
	second := c.Finish()
	if len(first.Intervals) != len(second.Intervals) {
		t.Fatalf("Finish not stable: %d vs %d intervals", len(first.Intervals), len(second.Intervals))
	}
	o.Close()
	parsed, err := obs.ReadRecords(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Intervals) != len(first.Intervals) {
		t.Fatalf("double Finish re-emitted: journal %d vs %d", len(parsed.Intervals), len(first.Intervals))
	}
}

func TestTableStatsSampledAtBoundaries(t *testing.T) {
	c := New(Config{Interval: 1000, TableStats: true}, nil)
	p := predictor.NewGShare(1 << 10)
	c.Bind(p, "w", "i", "gshare:1KB", false)
	// Drive the predictor and the collector in lockstep, as the sim loop does.
	for i := 0; i < 3000; i++ {
		pc := 0x1000 + uint64(i%211)*4
		taken := i%3 != 0
		pred := p.Predict(pc)
		p.Update(pc, taken)
		c.Branch(pc, taken, pred == taken, false, predictor.Confidence{})
	}
	recs := c.Finish()
	if len(recs.TableStats) != len(recs.Intervals) {
		t.Fatalf("%d table samples for %d intervals", len(recs.TableStats), len(recs.Intervals))
	}
	for i, ts := range recs.TableStats {
		if ts.Seq != recs.Intervals[i].Seq || ts.Instructions != recs.Intervals[i].Instructions {
			t.Fatalf("sample %d not aligned with its interval", i)
		}
		if len(ts.Tables) != 1 || ts.Tables[0].Name != "pht" {
			t.Fatalf("sample %d tables = %+v", i, ts.Tables)
		}
		if ts.Tables[0].Occupied == 0 {
			t.Fatalf("sample %d shows empty table after training", i)
		}
	}
}

func TestTopKAndHistograms(t *testing.T) {
	c := New(Config{Interval: 10_000, TopK: 4, SiteCap: 8}, nil)
	c.Bind(predictor.NewBimodal(64), "w", "i", "p", true)
	// 16 sites with cap 8: half must be dropped.
	for i := 0; i < 4000; i++ {
		site := i % 16
		pc := 0x1000 + uint64(site)*4
		// site 0 mispredicts always and collides destructively: the clear
		// worst offender.
		correct := site != 0
		c.Branch(pc, true, correct, site == 0, predictor.Confidence{})
	}
	rec := c.Finish().TopK
	if rec == nil {
		t.Fatal("no topk record")
	}
	if rec.Sites != 8 {
		t.Errorf("sites = %d, want 8 (capped)", rec.Sites)
	}
	// Sites 8–15 each execute 250 times past the cap: SitesDropped counts
	// those executions, not the 8 branches.
	if rec.SitesDropped != 2000 {
		t.Errorf("sites dropped = %d, want 2000", rec.SitesDropped)
	}
	if rec.K != 4 {
		t.Errorf("k = %d, want 4", rec.K)
	}
	if len(rec.TopMispredicted) == 0 || rec.TopMispredicted[0].PC != 0x1000 {
		t.Fatalf("top mispredicted = %+v, want site 0x1000 first", rec.TopMispredicted)
	}
	if len(rec.TopDestructive) == 0 || rec.TopDestructive[0].PC != 0x1000 {
		t.Fatalf("top destructive = %+v, want site 0x1000 first", rec.TopDestructive)
	}
	first := rec.TopMispredicted[0]
	if first.Execs == 0 || first.MispRate != 1 || first.Bias != 1 {
		t.Errorf("offender profile = %+v, want execs>0, misp rate 1, bias 1", first)
	}
	var histSites uint64
	for _, b := range rec.BiasHist {
		histSites += b
	}
	if histSites != uint64(rec.Sites) {
		t.Errorf("bias histogram sums to %d, want %d", histSites, rec.Sites)
	}
	// All tracked sites are always-taken: perfectly biased, bucket 0.
	if rec.BiasHist[0] != uint64(rec.Sites) {
		t.Errorf("bias histogram = %v, want all sites in bucket 0", rec.BiasHist)
	}
}

// TestTopMispredictedPastSiteCap checks that the top-mispredicted list
// ranks every branch, not only the SiteCap sites the tracker profiles: the
// worst offender, first seen after the cap, heads it with no site profile
// (Execs 0), whether the events arrive through Branch or through Block.
func TestTopMispredictedPastSiteCap(t *testing.T) {
	const worst = 0x1000 + 12*4
	pcs := make([]uint64, 4000)
	taken := make([]bool, len(pcs))
	correct := make([]bool, len(pcs))
	collided := make([]bool, len(pcs))
	var misp uint64
	for i := range pcs {
		pcs[i] = 0x1000 + uint64(i%16)*4 // 16 sites, first seen in order
		taken[i] = true
		// Three tracked sites mispredict one time in five and the worst
		// always: no more mispredicting keys than the sketch holds (TopK),
		// so every count is exact.
		correct[i] = pcs[i] != worst && (i%16 >= 3 || i%5 != 0)
		if !correct[i] {
			misp++
		}
	}
	feeds := map[string]func(c *Collector){
		"Branch": func(c *Collector) {
			for i, pc := range pcs {
				c.Branch(pc, taken[i], correct[i], false, predictor.Confidence{})
			}
		},
		"Block": func(c *Collector) {
			c.Block(pcs, taken, 0, &predictor.BlockMetrics{
				Mispredicts: misp, TakenCount: uint64(len(pcs)),
				Correct: correct, Collided: collided,
			})
		},
	}
	for name, feed := range feeds {
		c := New(Config{Interval: 1 << 20, TopK: 4, SiteCap: 8}, nil)
		c.Bind(predictor.NewBimodal(64), "w", "i", "p", true)
		feed(c)
		rec := c.Finish().TopK
		if rec == nil {
			t.Fatalf("%s: no topk record", name)
		}
		if rec.Sites != 8 {
			t.Errorf("%s: sites = %d, want 8 (capped)", name, rec.Sites)
		}
		if len(rec.TopMispredicted) == 0 {
			t.Fatalf("%s: empty top-mispredicted list", name)
		}
		first := rec.TopMispredicted[0]
		if first.PC != worst || first.Count != uint64(len(pcs)/16) || first.Execs != 0 {
			t.Errorf("%s: top mispredicted starts %+v, want pc %#x with count %d and execs 0",
				name, first, worst, len(pcs)/16)
		}
	}
}

func TestRateBucket(t *testing.T) {
	cases := []struct {
		f    float64
		want int
	}{
		{0, 0}, {1, 1}, {0.5, 1}, {0.4, 2}, {0.25, 2}, {0.1, 4}, {1e-12, 40},
	}
	for _, tc := range cases {
		got := rateBucket(tc.f)
		want := tc.want
		if want > maxHistBucket {
			want = maxHistBucket
		}
		if got != want {
			t.Errorf("rateBucket(%v) = %d, want %d", tc.f, got, want)
		}
	}
}

// TestBulkOpsSealsPerBoundary pins the canonical seal rule: a straight-line
// run seals exactly at every interval boundary it crosses, as if charged one
// instruction at a time. This is what makes journals independent of how the
// recording pipeline batches Ops (raw workload stream vs decoded chunks vs
// block kernels coalesce the same gap differently).
func TestBulkOpsSealsPerBoundary(t *testing.T) {
	run := func(charge func(c *Collector)) Records {
		c := New(Config{Interval: 100}, nil)
		c.Bind(predictor.NewBimodal(64), "w", "i", "p", false)
		c.Branch(0x40, true, true, false, predictor.Confidence{})
		charge(c)
		c.Branch(0x44, true, true, false, predictor.Confidence{})
		return c.Finish()
	}

	recs := run(func(c *Collector) { c.Ops(10_000) })
	// Boundaries 100, 200, …, 10000 each seal, plus the final partial.
	if len(recs.Intervals) != 101 {
		t.Fatalf("got %d intervals, want 101 (one per crossed boundary + final partial)", len(recs.Intervals))
	}
	for i, r := range recs.Intervals[:100] {
		if want := uint64(100 * (i + 1)); r.Instructions != want {
			t.Fatalf("interval %d sealed at %d instructions, want the exact boundary %d", i, r.Instructions, want)
		}
	}
	var sum uint64
	for _, r := range recs.Intervals {
		sum += r.DInstructions
	}
	if sum != 10_002 {
		t.Errorf("delta sum = %d, want 10002", sum)
	}

	// The records are identical however the same run is split into Ops calls.
	singly := run(func(c *Collector) {
		for i := 0; i < 10_000; i++ {
			c.Ops(1)
		}
	})
	uneven := run(func(c *Collector) {
		c.Ops(99)
		c.Ops(1) // lands exactly on the first boundary
		c.Ops(151)
		c.Ops(9_749)
	})
	for name, got := range map[string]Records{"one-at-a-time": singly, "uneven splits": uneven} {
		if len(got.Intervals) != len(recs.Intervals) {
			t.Fatalf("%s: got %d intervals, want %d", name, len(got.Intervals), len(recs.Intervals))
		}
		for i := range got.Intervals {
			if got.Intervals[i] != recs.Intervals[i] {
				t.Errorf("%s: interval %d = %+v, want %+v", name, i, got.Intervals[i], recs.Intervals[i])
			}
		}
	}
}

func TestEmptyRunStillSealsOneInterval(t *testing.T) {
	c := New(Config{Interval: 100}, nil)
	c.Bind(predictor.NewBimodal(64), "w", "i", "p", false)
	recs := c.Finish()
	if len(recs.Intervals) != 1 {
		t.Fatalf("got %d intervals for an empty run, want 1", len(recs.Intervals))
	}
	if recs.Intervals[0].DInstructions != 0 {
		t.Errorf("empty run interval deltas = %+v", recs.Intervals[0])
	}
}
