package serve_test

import (
	"context"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"branchsim/internal/experiment"
	"branchsim/internal/obs"
	"branchsim/internal/serve"
	"branchsim/internal/trace"
	"branchsim/internal/workload"
	"branchsim/serveapi"
)

// countingProg wraps a workload so tests can count instrumented executions.
type countingProg struct {
	workload.Program
	execs *atomic.Int64
}

func (p countingProg) Run(ctx context.Context, input string, rec trace.Recorder) error {
	p.execs.Add(1)
	return p.Program.Run(ctx, input, rec)
}

// gateProg lets the first free executions through and blocks the rest until
// gate closes (or the arm's context ends), so tests can hold jobs in flight
// deterministically.
type gateProg struct {
	workload.Program
	free *atomic.Int64
	gate chan struct{}
}

func (p gateProg) Run(ctx context.Context, input string, rec trace.Recorder) error {
	if p.free.Add(-1) >= 0 {
		return p.Program.Run(ctx, input, rec)
	}
	select {
	case <-p.gate:
		return p.Program.Run(ctx, input, rec)
	case <-ctx.Done():
		return ctx.Err()
	}
}

// waitTerminal polls a job until it reaches a terminal state.
func waitTerminal(t *testing.T, s *serve.Server, id string) *serveapi.JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		st, err := s.Status(id)
		if err != nil {
			t.Fatalf("Status(%s): %v", id, err)
		}
		if st.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s not terminal after 2m: %+v", id, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMultiTenantDedupe submits two concurrent jobs from different tenants
// that share a (workload, input) pair and one predictor, and proves the
// shared harness deduplicates across the job boundary: one instrumented
// execution (one replay capture) total, and only the union of distinct arms
// simulated.
func TestMultiTenantDedupe(t *testing.T) {
	var execs atomic.Int64
	sink := obs.New()
	h := experiment.NewQuickHarness(
		experiment.WithObserver(sink),
		experiment.WithWorkers(4),
		experiment.WithLookup(func(name string) (workload.Program, error) {
			p, err := workload.Get(name)
			if err != nil {
				return nil, err
			}
			return countingProg{Program: p, execs: &execs}, nil
		}),
	)
	defer h.Close()
	s, err := serve.New(serve.Config{Harness: h, Obs: sink, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Both grids hit (compress, test); "gshare:1KB" appears in both.
	submit := func(tenant string, preds ...string) string {
		t.Helper()
		ack, err := s.Submit(context.Background(), &serveapi.JobSpec{
			Tenant:     tenant,
			Workloads:  []string{"compress"},
			Inputs:     []string{"test"},
			Predictors: preds,
		})
		if err != nil {
			t.Fatalf("Submit(%s): %v", tenant, err)
		}
		return ack.ID
	}
	idA := submit("alice", "bimodal:1KB", "gshare:1KB")
	idB := submit("bob", "ghist:1KB", "gshare:1KB")

	stA := waitTerminal(t, s, idA)
	stB := waitTerminal(t, s, idB)
	for _, st := range []*serveapi.JobStatus{stA, stB} {
		if st.State != serveapi.StateDone || st.ArmsDone != 2 {
			t.Fatalf("job %s: state=%s done=%d, want done/2 (error %q)", st.ID, st.State, st.ArmsDone, st.Error)
		}
	}

	// Exactly one instrumented execution of (compress, test) across both
	// tenants, and three simulations for the four arms (gshare:1KB shared).
	if n := execs.Load(); n != 1 {
		t.Errorf("workload executed %d times, want 1 (capture shared across jobs)", n)
	}
	if n := sink.Counter(obs.MReplayCaptures).Value(); n != 1 {
		t.Errorf("%s = %d, want 1", obs.MReplayCaptures, n)
	}
	if st := h.Stats(); st.RunsComputed != 3 {
		t.Errorf("RunsComputed = %d, want 3 (union of distinct arms)", st.RunsComputed)
	}

	// The shared arm's metrics are identical in both tenants' results.
	find := func(st *serveapi.JobStatus, pred string) *serveapi.Metrics {
		t.Helper()
		for _, a := range st.Arms {
			if a.Predictor == pred {
				if a.Metrics == nil {
					t.Fatalf("job %s arm %s has no metrics", st.ID, a.Key())
				}
				return a.Metrics
			}
		}
		t.Fatalf("job %s has no %s arm", st.ID, pred)
		return nil
	}
	mA, mB := find(stA, "gshare:1KB"), find(stB, "gshare:1KB")
	if *mA != *mB {
		t.Errorf("shared arm metrics diverge across tenants: %+v vs %+v", *mA, *mB)
	}

	// Serve metric series settled: nothing running, nothing pending.
	if g := sink.Gauge(obs.MServeJobsRunning).Value(); g != 0 {
		t.Errorf("%s = %d after both jobs, want 0", obs.MServeJobsRunning, g)
	}
	if g := sink.Gauge(obs.MServeArmsPending).Value(); g != 0 {
		t.Errorf("%s = %d after both jobs, want 0", obs.MServeArmsPending, g)
	}
	if n := sink.Counter(obs.MServeArmsDone).Value(); n != 4 {
		t.Errorf("%s = %d, want 4", obs.MServeArmsDone, n)
	}
}

// TestAdmissionControl exercises the typed rejections: per-tenant in-flight
// job quota, per-job arm quota, and draining — each a *serveapi.Error the
// client can branch on, never an unbounded queue.
func TestAdmissionControl(t *testing.T) {
	var free atomic.Int64 // 0: every execution blocks until gate closes
	gate := make(chan struct{})
	lookup := func(name string) (workload.Program, error) {
		p, err := workload.Get(name)
		if err != nil {
			return nil, err
		}
		return gateProg{Program: p, free: &free, gate: gate}, nil
	}
	sink := obs.New()
	h := experiment.NewQuickHarness(experiment.WithObserver(sink), experiment.WithLookup(lookup))
	defer h.Close()
	s, err := serve.New(serve.Config{
		Harness: h, Obs: sink, Workers: 4,
		MaxTenantJobs: 2, MaxArmsPerJob: 4,
		Lookup: lookup,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	spec := func(tenant, pred string) *serveapi.JobSpec {
		return &serveapi.JobSpec{Tenant: tenant,
			Workloads: []string{"compress"}, Inputs: []string{"test"},
			Predictors: []string{pred}}
	}
	var ids []string
	for _, pred := range []string{"gshare:1KB", "bimodal:1KB"} {
		ack, err := s.Submit(context.Background(), spec("alice", pred))
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		ids = append(ids, ack.ID)
	}

	// Third alice job: over the in-flight quota.
	if _, err := s.Submit(context.Background(), spec("alice", "ghist:1KB")); !serveapi.IsCode(err, serveapi.CodeQuotaJobs) {
		t.Errorf("over-quota submit: err = %v, want code %s", err, serveapi.CodeQuotaJobs)
	}
	// Quotas are per tenant: bob is unaffected by alice's jobs.
	ack, err := s.Submit(context.Background(), spec("bob", "ghist:1KB"))
	if err != nil {
		t.Fatalf("Submit(bob): %v", err)
	}
	ids = append(ids, ack.ID)

	// A grid over the arm quota is refused outright, with advice to split.
	_, err = s.Submit(context.Background(), &serveapi.JobSpec{Tenant: "bob",
		Workloads: []string{"compress"}, Inputs: []string{"test"},
		Predictors: []string{"gshare:1KB", "gshare:2KB", "gshare:4KB", "gshare:8KB", "gshare:16KB"}})
	if !serveapi.IsCode(err, serveapi.CodeQuotaArms) {
		t.Errorf("over-arm-quota submit: err = %v, want code %s", err, serveapi.CodeQuotaArms)
	}

	// Release the gate; every admitted job completes.
	close(gate)
	for _, id := range ids {
		if st := waitTerminal(t, s, id); st.State != serveapi.StateDone {
			t.Errorf("job %s: state = %s (error %q), want done", id, st.State, st.Error)
		}
	}

	// Drain: no further admissions, typed as such.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if _, err := s.Submit(context.Background(), spec("carol", "gshare:1KB")); !serveapi.IsCode(err, serveapi.CodeDraining) {
		t.Errorf("draining submit: err = %v, want code %s", err, serveapi.CodeDraining)
	}

	if n := sink.Counter(obs.MServeJobsSubmitted).Value(); n != 3 {
		t.Errorf("%s = %d, want 3", obs.MServeJobsSubmitted, n)
	}
	if n := sink.Counter(obs.MServeJobsRejected).Value(); n != 3 {
		t.Errorf("%s = %d, want 3 (job quota, arm quota, draining)", obs.MServeJobsRejected, n)
	}
	if n := sink.Counter(obs.MServeJobsDone).Value(); n != 3 {
		t.Errorf("%s = %d, want 3", obs.MServeJobsDone, n)
	}
}

// TestSubmitValidation proves a bad spec is a submission-time typed error
// naming the offending token, not N failed arms.
// TestArmQuotaRefusedBeforeExpansion submits a 64×64×16 grid of repeated
// valid names, far over the arm quota. The refusal must come before the
// grid is expanded (65,536 arms, 4 MiB), so it costs little more than
// validating the spec.
func TestArmQuotaRefusedBeforeExpansion(t *testing.T) {
	h := experiment.NewQuickHarness()
	defer h.Close()
	s, err := serve.New(serve.Config{Harness: h})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	repeat := func(name string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = name
		}
		return out
	}
	spec := &serveapi.JobSpec{Tenant: "mallory",
		Workloads: repeat("compress", 64), Inputs: repeat("test", 64),
		Predictors: repeat("gshare:1KB", 16)}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = s.Submit(context.Background(), spec)
	runtime.ReadMemStats(&after)
	if !serveapi.IsCode(err, serveapi.CodeQuotaArms) {
		t.Fatalf("err = %v, want code %s", err, serveapi.CodeQuotaArms)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 256<<10 {
		t.Errorf("refused submit allocated %d B, want < 256 KiB", d)
	}
}

func TestSubmitValidation(t *testing.T) {
	h := experiment.NewQuickHarness()
	defer h.Close()
	s, err := serve.New(serve.Config{Harness: h})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	base := func() *serveapi.JobSpec {
		return &serveapi.JobSpec{Workloads: []string{"compress"},
			Inputs: []string{"test"}, Predictors: []string{"gshare:1KB"}}
	}
	cases := []struct {
		name   string
		mutate func(*serveapi.JobSpec)
		token  string
	}{
		{"unknown workload", func(s *serveapi.JobSpec) { s.Workloads = []string{"compresss"} }, "compresss"},
		{"unknown input", func(s *serveapi.JobSpec) { s.Inputs = []string{"reff"} }, "reff"},
		{"unknown predictor", func(s *serveapi.JobSpec) { s.Predictors = []string{"gsharre:1KB"} }, "gsharre"},
		{"bad option key", func(s *serveapi.JobSpec) { s.Predictors = []string{"gshare:1KB:z=3"} }, `"z"`},
		{"unknown scheme", func(s *serveapi.JobSpec) { s.Schemes = []string{"static9"} }, "static9"},
		{"empty grid", func(s *serveapi.JobSpec) { s.Predictors = nil }, "predictors"},
	}
	for _, tc := range cases {
		spec := base()
		tc.mutate(spec)
		_, err := s.Submit(context.Background(), spec)
		if !serveapi.IsCode(err, serveapi.CodeBadSpec) {
			t.Errorf("%s: err = %v, want code %s", tc.name, err, serveapi.CodeBadSpec)
			continue
		}
		if !strings.Contains(err.Error(), tc.token) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.token)
		}
	}

	if _, err := s.Status("j999999"); !serveapi.IsCode(err, serveapi.CodeNotFound) {
		t.Errorf("Status(unknown): err = %v, want code %s", err, serveapi.CodeNotFound)
	}
	if _, err := s.Cancel("j999999"); !serveapi.IsCode(err, serveapi.CodeNotFound) {
		t.Errorf("Cancel(unknown): err = %v, want code %s", err, serveapi.CodeNotFound)
	}
}

// TestDrainCheckpointResume kills a daemon mid-job and proves a fresh daemon
// over the same checkpoint directory finishes the job with zero recompute of
// the arms that completed before the kill.
func TestDrainCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	spec := func() *serveapi.JobSpec {
		return &serveapi.JobSpec{Tenant: "alice", Name: "resume",
			Workloads: []string{"compress"}, Inputs: []string{"test"},
			Predictors: []string{"bimodal:1KB", "gshare:1KB", "ghist:1KB", "2bcgskew:1KB"}}
	}

	// First daemon: two arms complete, the rest block until drain cancels
	// them. No replay engine — each arm executes the (gated) program, so the
	// gate controls arm completion exactly.
	var free atomic.Int64
	free.Store(2)
	gate := make(chan struct{}) // never closed: blocked arms end only by cancellation
	cp1, err := experiment.OpenCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	h1 := experiment.NewQuickHarness(
		experiment.WithCheckpoint(cp1),
		experiment.WithLookup(func(name string) (workload.Program, error) {
			p, err := workload.Get(name)
			if err != nil {
				return nil, err
			}
			return gateProg{Program: p, free: &free, gate: gate}, nil
		}),
	)
	defer h1.Close()
	s1, err := serve.New(serve.Config{Harness: h1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ack, err := s1.Submit(context.Background(), spec())
	if err != nil {
		t.Fatal(err)
	}

	// Wait until exactly the two free arms have settled.
	deadline := time.Now().Add(time.Minute)
	var doneBefore int
	for {
		st, err := s1.Status(ack.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.ArmsDone >= 2 {
			doneBefore = st.ArmsDone
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("arms never completed: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// SIGTERM path: drain with a deadline. The blocked arms are cancelled
	// cooperatively; completed arms are already in the checkpoint.
	dctx, dcancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer dcancel()
	if err := s1.Drain(dctx); err != context.DeadlineExceeded {
		t.Fatalf("Drain = %v, want deadline exceeded (arms were blocked)", err)
	}
	st1, err := s1.Status(ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st1.State != serveapi.StateCancelled {
		t.Fatalf("killed job state = %s, want cancelled", st1.State)
	}
	if st1.ArmsDone != doneBefore || st1.ArmsFailed != 0 {
		t.Fatalf("killed job done=%d failed=%d, want done=%d failed=0", st1.ArmsDone, st1.ArmsFailed, doneBefore)
	}
	s1.Close() // idempotent after Drain
	h1.Close()

	// Second daemon over the same checkpoint directory: resubmit the job and
	// demand zero recompute of the finished arms.
	cp2, err := experiment.OpenCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	h2 := experiment.NewQuickHarness(experiment.WithCheckpoint(cp2))
	defer h2.Close()
	s2, err := serve.New(serve.Config{Harness: h2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ack2, err := s2.Submit(context.Background(), spec())
	if err != nil {
		t.Fatal(err)
	}
	st2 := waitTerminal(t, s2, ack2.ID)
	if st2.State != serveapi.StateDone || st2.ArmsDone != 4 {
		t.Fatalf("resumed job: state=%s done=%d (error %q), want done/4", st2.State, st2.ArmsDone, st2.Error)
	}
	for _, a := range st2.Arms {
		if a.State != serveapi.ArmDone || a.Metrics == nil {
			t.Errorf("resumed arm %s: state=%s metrics=%v", a.Key(), a.State, a.Metrics)
		}
	}
	stats := h2.Stats()
	if want := uint64(4 - doneBefore); stats.RunsComputed != want {
		t.Errorf("resumed RunsComputed = %d, want %d (zero recompute of checkpointed arms)", stats.RunsComputed, want)
	}
	if want := uint64(doneBefore); stats.CheckpointHits != want {
		t.Errorf("resumed CheckpointHits = %d, want %d", stats.CheckpointHits, want)
	}
}

// TestCloseIdempotent closes a server twice, once concurrently with a
// running job.
func TestCloseIdempotent(t *testing.T) {
	h := experiment.NewQuickHarness(experiment.WithWorkers(2))
	defer h.Close()
	s, err := serve.New(serve.Config{Harness: h, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(context.Background(), &serveapi.JobSpec{Workloads: []string{"compress"},
		Inputs: []string{"test"}, Predictors: []string{"gshare:1KB"}}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close()
	if !s.Draining() {
		t.Error("Draining() = false after Close")
	}
}
