package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// A nil observer must be a complete no-op: nil handles, no-op spans, no
// allocations on the update path. This is the zero-cost-when-disabled
// contract every instrumented package relies on.
func TestNilObserverIsNoop(t *testing.T) {
	var o *Observer
	if o.Registry() != nil {
		t.Fatalf("nil observer returned a registry")
	}
	c := o.Counter("x")
	if c != nil {
		t.Fatalf("nil observer returned a counter")
	}
	c.Add(5)
	if c.Value() != 0 {
		t.Fatalf("nil counter accumulated")
	}
	g := o.Gauge("y")
	g.Set(3)
	g.Add(-1)
	if g.Value() != 0 {
		t.Fatalf("nil gauge accumulated")
	}
	s := o.StartArm("run", "k")
	if s != nil {
		t.Fatalf("nil observer returned a span")
	}
	s.SetLabels("w", "i", "p", "s")
	s.SetSource(SourceCheckpoint)
	s.AddPhase(PhaseReplay, time.Now(), time.Second)
	s.Phase(PhaseSelect)()
	s.SetEvents(10)
	s.SetMetrics(struct{ X int }{1})
	s.End(errors.New("boom")) // must not panic or write anywhere
	if stop := o.StartProgress(io.Discard, time.Millisecond); stop == nil {
		t.Fatalf("nil observer returned nil stop")
	} else {
		stop()
	}
	if _, err := o.Serve("127.0.0.1:0"); err == nil {
		t.Fatalf("nil observer served")
	}
	if err := o.Close(); err != nil {
		t.Fatalf("nil observer Close: %v", err)
	}
}

func TestNilHandlesAllocationFree(t *testing.T) {
	var o *Observer
	c := o.Counter("x")
	g := o.Gauge("y")
	s := o.StartArm("run", "k")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		g.Add(1)
		s.AddPhase(PhaseReplay, time.Time{}, 1)
		s.End(nil)
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %v per op", allocs)
	}
}

func TestRegistryCountersGauges(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a")
	if c != r.Counter("a") {
		t.Fatalf("counter handle not stable")
	}
	c.Add(2)
	c.Add(3)
	r.Gauge("g").Set(7)
	r.Gauge("g").Add(-2)
	snap := r.Snapshot()
	want := map[string]int64{"a": 5, "g": 5}
	for k, v := range want {
		if snap[k] != v {
			t.Errorf("snapshot[%q] = %d, want %d", k, snap[k], v)
		}
	}
}

func TestSpanJournalRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	o := New(WithJournal(NewJournal(&buf)))

	s := o.StartArm("run", "r|gcc|ref|gshare:8KB")
	s.SetLabels("gcc", "ref", "gshare:8KB", "static95")
	s.AddPhase(PhaseSelect, time.Now(), 5*time.Millisecond)
	s.AddPhase(PhaseReplay, time.Now(), 100*time.Millisecond)
	s.SetEvents(1_000_000)
	s.SetMetrics(map[string]any{"Mispredicts": 42})
	s.End(nil)

	f := o.StartArm("profile", "p|gcc|train|")
	f.SetLabels("gcc", "train", "", "")
	f.SetSource(SourceCheckpoint)
	f.End(errors.New("checkpoint corrupt"))

	if err := o.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	r0 := recs[0]
	if r0.Kind != "run" || r0.Key != "r|gcc|ref|gshare:8KB" || r0.Workload != "gcc" ||
		r0.Predictor != "gshare:8KB" || r0.Scheme != "static95" || r0.Source != SourceComputed {
		t.Fatalf("record 0 = %+v", r0)
	}
	if r0.Events != 1_000_000 || r0.WallNanos <= 0 {
		t.Fatalf("record 0 counters = %+v", r0)
	}
	if len(r0.Phases) != 2 || r0.Phases[1].Phase != PhaseReplay || r0.Phases[1].Nanos != int64(100*time.Millisecond) {
		t.Fatalf("record 0 phases = %+v", r0.Phases)
	}
	// Throughput uses the stream phase (replay), not total wall time.
	if want := 1_000_000 / 0.1; r0.EventsPerSec < want*0.99 || r0.EventsPerSec > want*1.01 {
		t.Fatalf("events/s = %v, want ~%v", r0.EventsPerSec, want)
	}
	var m struct{ Mispredicts int }
	if err := json.Unmarshal(r0.Metrics, &m); err != nil || m.Mispredicts != 42 {
		t.Fatalf("metrics round-trip: %v %+v", err, m)
	}
	r1 := recs[1]
	if r1.Source != SourceCheckpoint || r1.Error != "checkpoint corrupt" || r1.Kind != "profile" {
		t.Fatalf("record 1 = %+v", r1)
	}

	// Arm counters reflect both spans.
	if o.Counter(MArmsStarted).Value() != 2 || o.Counter(MArmsDone).Value() != 1 ||
		o.Counter(MArmsFailed).Value() != 1 || o.Gauge(MArmsRunning).Value() != 0 {
		t.Fatalf("arm counters = %v", o.Registry().Snapshot())
	}
}

func TestReadJournalRejectsMalformed(t *testing.T) {
	_, err := ReadJournal(strings.NewReader("{\"kind\":\"run\"}\nnot json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v", err)
	}
	recs, err := ReadJournal(strings.NewReader("\n\n{\"kind\":\"run\",\"key\":\"k\",\"source\":\"computed\",\"time\":\"2026-08-05T00:00:00Z\",\"wall_ns\":1}\n\n"))
	if err != nil || len(recs) != 1 {
		t.Fatalf("recs=%v err=%v", recs, err)
	}
}

func TestJournalFileAndConcurrentRecords(t *testing.T) {
	path := t.TempDir() + "/run.jsonl"
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	o := New(WithJournal(j))
	done := make(chan struct{})
	const n = 32
	for i := 0; i < n; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			s := o.StartArm("run", "k")
			s.SetEvents(1)
			s.End(nil)
		}()
	}
	for i := 0; i < n; i++ {
		<-done
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("got %d records, want %d", len(recs), n)
	}
}

func TestServeVarsAndPprof(t *testing.T) {
	o := New()
	o.Counter(MSimEvents).Add(123)
	srv, err := o.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %v", resp.Status)
	}
	var vars map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	if vars[MSimEvents] != 123 {
		t.Fatalf("vars = %v", vars)
	}
	if _, ok := vars["process.goroutines"]; !ok {
		t.Fatalf("no process stats in %v", vars)
	}
	pp, err := http.Get("http://" + srv.Addr() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	pp.Body.Close()
	if pp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status = %v", pp.Status)
	}
}

func TestProgressReporter(t *testing.T) {
	var buf bytes.Buffer
	o := New()
	o.Counter(MSimEvents).Add(5000)
	o.Counter(MReplayReplays).Add(4)
	stop := o.StartProgress(&buf, time.Hour) // only the final line fires
	stop()
	stop() // idempotent
	out := buf.String()
	if !strings.Contains(out, "done") || !strings.Contains(out, "replay") {
		t.Fatalf("progress line = %q", out)
	}
	if strings.Count(out, "\n") != 1 {
		t.Fatalf("expected exactly one line, got %q", out)
	}
}

// TestProgressReporterDoesNotPublish: the stderr reporter puts nothing on the
// live bus. Serve's pulse is the bus's only ProgressRecord source; a second
// one over a different window would make a dashboard's rate flip between
// the two.
func TestProgressReporterDoesNotPublish(t *testing.T) {
	o := New()
	defer o.Close()
	sub := o.Subscribe(64)
	o.Counter(MSimEvents).Add(5000)
	lines := make(chan struct{}, 1)
	stop := o.StartProgress(lineSignal(lines), time.Millisecond)
	<-lines // a tick has reported
	stop()  // and the final line
	select {
	case line := <-sub.C():
		t.Fatalf("StartProgress published %s", line)
	default:
	}
}

// lineSignal is a writer that signals each write on its channel, dropping
// the signal when one is already pending.
type lineSignal chan struct{}

func (c lineSignal) Write(p []byte) (int, error) {
	select {
	case c <- struct{}{}:
	default:
	}
	return len(p), nil
}

func TestJournalWriteFailureReportedOnce(t *testing.T) {
	var errlog bytes.Buffer
	o := New(WithJournal(NewJournal(failingWriter{})), WithErrorLog(&errlog))
	for i := 0; i < 3; i++ {
		s := o.StartArm("run", "k")
		s.End(nil)
	}
	if got := strings.Count(errlog.String(), "journal write failed"); got != 1 {
		t.Fatalf("failure reported %d times: %q", got, errlog.String())
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }
