package obs

import (
	"strings"
	"testing"
	"time"
)

// TestHistogramBuckets pins the exponential bucket layout: bound i is 2^i
// microseconds, observations land in the lowest covering bucket, and
// overflow beyond the last finite bound counts only toward Count (the
// implicit +Inf bucket).
func TestHistogramBuckets(t *testing.T) {
	h := &Histogram{}
	for _, tc := range []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{500 * time.Nanosecond, 0},
		{time.Microsecond, 0},
		{time.Microsecond + 1, 1},
		{2 * time.Microsecond, 1},
		{3 * time.Microsecond, 2},
		{time.Millisecond, 10},          // 1024µs = 2^10
		{time.Second, 20},               // ~1.05s bound at 2^20 µs
		{30 * time.Second, 25},          // 33.6s bound at 2^25 µs
		{40 * time.Minute, histBuckets}, // past the ~36min top bound: +Inf
	} {
		if got := histBucketIndex(tc.d); got != tc.want {
			t.Errorf("histBucketIndex(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
	// Bounds are consistent with indexing: every duration equal to a bound
	// lands in that bucket.
	for i := 0; i < histBuckets; i++ {
		if got := histBucketIndex(BucketBound(i)); got != i {
			t.Errorf("histBucketIndex(BucketBound(%d)=%v) = %d", i, BucketBound(i), got)
		}
	}

	h.Observe(time.Microsecond)
	h.Observe(3 * time.Microsecond)
	h.Observe(3 * time.Microsecond)
	h.Observe(-time.Second)     // clamps to 0
	h.Observe(40 * time.Minute) // overflow
	b := h.Buckets()
	if b[0] != 2 || b[2] != 2 {
		t.Fatalf("buckets = %v", b)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	var finite uint64
	for _, n := range b {
		finite += n
	}
	if finite != 4 {
		t.Fatalf("finite bucket total = %d, want 4 (overflow is +Inf only)", finite)
	}
	if h.Max() != 40*time.Minute {
		t.Fatalf("max = %v", h.Max())
	}
	wantSum := time.Microsecond + 6*time.Microsecond + 40*time.Minute
	if h.Sum() != wantSum {
		t.Fatalf("sum = %v, want %v", h.Sum(), wantSum)
	}
}

// TestHistogramExemplar: ObserveExemplar tags the landing bucket with the
// trace, overflow clamps to the last finite bucket, and empty trace IDs
// leave no exemplar.
func TestHistogramExemplar(t *testing.T) {
	h := &Histogram{}
	h.ObserveExemplar(3*time.Microsecond, "aaaa0000aaaa0000")
	h.ObserveExemplar(40*time.Minute, "bbbb0000bbbb0000")
	h.ObserveExemplar(time.Microsecond, "")
	ex := h.Exemplars()
	if ex[2] == nil || ex[2].TraceID != "aaaa0000aaaa0000" || ex[2].DurNanos != int64(3*time.Microsecond) {
		t.Fatalf("bucket 2 exemplar = %+v", ex[2])
	}
	if ex[histBuckets-1] == nil || ex[histBuckets-1].TraceID != "bbbb0000bbbb0000" {
		t.Fatalf("overflow exemplar = %+v", ex[histBuckets-1])
	}
	if ex[0] != nil {
		t.Fatalf("empty trace ID left an exemplar: %+v", ex[0])
	}
}

// TestHistogramNilZeroAlloc: the nil histogram (what a disabled observer
// hands out) must be free on the hot path.
func TestHistogramNilZeroAlloc(t *testing.T) {
	var o *Observer
	h := o.Histogram(MServeJobLatency)
	if h != nil {
		t.Fatal("nil observer returned a live histogram")
	}
	tc := o.TenantCounter(MTenantJobs, "alice")
	th := o.TenantHistogram(MTenantJobLatency, "alice")
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(time.Millisecond)
		h.ObserveExemplar(time.Millisecond, "deadbeefdeadbeef")
		tc.Add(1)
		th.Observe(time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("nil histogram path allocates %v per op", allocs)
	}
	if h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 {
		t.Fatal("nil histogram reports nonzero aggregates")
	}
}

// TestVecFamilies: label children are stable handles created on first use,
// Labels() is sorted, and the nil vecs hand out nil children.
func TestVecFamilies(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec(MTenantJobs)
	if cv != r.CounterVec(MTenantJobs) {
		t.Fatal("counter-vec handle not stable")
	}
	cv.With("bob").Add(2)
	cv.With("alice").Add(1)
	cv.With("bob").Add(3)
	if got := cv.With("bob").Value(); got != 5 {
		t.Fatalf("bob = %d, want 5", got)
	}
	if labels := cv.Labels(); len(labels) != 2 || labels[0] != "alice" || labels[1] != "bob" {
		t.Fatalf("labels = %v", labels)
	}
	hv := r.HistogramVec(MTenantJobLatency)
	hv.With("alice").Observe(time.Millisecond)
	if hv.With("alice").Count() != 1 {
		t.Fatal("histogram-vec child lost the observation")
	}

	var nv *CounterVec
	if nv.With("x") != nil || nv.Labels() != nil {
		t.Fatal("nil CounterVec handed out a live child")
	}
	var nh *HistogramVec
	if nh.With("x") != nil || nh.Labels() != nil {
		t.Fatal("nil HistogramVec handed out a live child")
	}
}

// TestHistogramPrometheusExposition renders a histogram family and checks
// the 0.0.4 text shape: cumulative _bucket series ending in +Inf == _count,
// float _sum in seconds, and exemplar comment lines carrying the trace.
func TestHistogramPrometheusExposition(t *testing.T) {
	o := New(WithTracing())
	defer o.Close()
	o.Histogram(MServeJobLatency).Observe(3 * time.Microsecond)
	o.Histogram(MServeJobLatency).ObserveExemplar(2*time.Millisecond, "cafe0000cafe0000")
	o.TenantHistogram(MTenantJobLatency, "alice").Observe(time.Millisecond)
	o.TenantCounter(MTenantShed, `we"ird\te
nant`).Add(2)

	var sb strings.Builder
	if err := WritePrometheus(&sb, o.Registry()); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"# TYPE branchsim_serve_job_latency histogram\n",
		`branchsim_serve_job_latency_bucket{le="4e-06"} 1` + "\n",
		`branchsim_serve_job_latency_bucket{le="+Inf"} 2` + "\n",
		"branchsim_serve_job_latency_count 2\n",
		`# EXEMPLAR branchsim_serve_job_latency_bucket{le="0.002048"} trace_id=cafe0000cafe0000`,
		`branchsim_serve_tenant_job_latency_bucket{tenant="alice",le="0.001024"} 1` + "\n",
		`branchsim_serve_tenant_job_latency_count{tenant="alice"} 1` + "\n",
		`branchsim_serve_tenant_shed{tenant="we\"ird\\te\nnant"} 2` + "\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q in:\n%s", want, text)
		}
	}
}
