package serve_test

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"branchsim/internal/experiment"
	"branchsim/internal/obs"
	"branchsim/internal/serve"
	"branchsim/internal/workload"
	"branchsim/serveapi"
)

// FuzzServeHandler sends arbitrary requests under /api/v1/ to the job API:
// any method, path suffix, body and X-Tenant. Whatever a client sends, the
// daemon answers below 500, and every 4xx carries a typed
// {type:"error",v:1} body with a code a client can branch on.
//
// Each input gets a fresh server with small quotas (one job in flight per
// tenant, four arms per job) whose arms block until it is drained, and one
// job already admitted for tenant alice, so status, cancel and quota paths
// see a live job.
func FuzzServeHandler(f *testing.F) {
	job := `{"type":"job_spec","v":1,"workloads":["compress"],"inputs":["test"],"predictors":["gshare:1KB"]}`
	for _, seed := range []struct {
		method, path, body, tenant string
	}{
		{"POST", "jobs", job, "bob"},
		{"POST", "jobs", job, "alice"}, // over alice's job quota
		{"POST", "jobs", `{"type":"job_spec","v":1,"workloads":["compress"],"inputs":["test"],"predictors":["gshare:1KB","bimodal:1KB"],"schemes":["none","static95","staticacc"]}`, ""},
		{"POST", "jobs", `{"type":"job_spec","v":1,"workloads":["nosuch"],"inputs":["test"],"predictors":["gshare"]}`, ""},
		{"POST", "jobs", `{"type":"job_spec","v":1,"workloads":["compress"],"inputs":["test"],"predictors":["gshare:1KB"],"schemes":["bogus"]}`, ""},
		{"POST", "jobs", `{"type":"job_status","v":1}`, ""},
		{"POST", "jobs", `not json`, ""},
		{"POST", "jobs", ``, ""},
		{"GET", "jobs", ``, ""},
		{"GET", "tenants", ``, ""},
		{"GET", "jobs/j000001", ``, ""},
		{"GET", "jobs/j999999", ``, ""},
		{"POST", "jobs/j000001/cancel", ``, ""},
		{"POST", "jobs/nosuch/cancel", ``, ""},
		{"GET", "jobs/j000001/cancel", ``, ""},
		{"DELETE", "jobs", ``, ""},
		{"PUT", "jobs/j000001", job, ""},
		{"HEAD", "jobs", ``, ""},
		{"OPTIONS", "tenants", ``, ""},
		{"GET", "", ``, ""},
		{"GET", "jobs/", ``, ""},
		{"GET", "nosuch/../jobs", ``, ""},
		{"GET", "jobs/%2F", ``, ""},
		{"CONNECT", "jobs", ``, ""},
	} {
		f.Add(seed.method, seed.path, []byte(seed.body), seed.tenant)
	}
	f.Fuzz(func(t *testing.T, method, path string, body []byte, tenant string) {
		req, err := http.NewRequest(method, "http://daemon/api/v1/"+path, bytes.NewReader(body))
		if err != nil {
			return // no server would read this request line
		}
		req.Header.Set("X-Tenant", tenant)

		s, drain := gatedServer(t)
		rec := httptest.NewRecorder()
		serve.Handler(s, nil).ServeHTTP(rec, req)
		drain()

		resp := rec.Result()
		out, _ := io.ReadAll(resp.Body)
		if resp.StatusCode >= 500 {
			t.Fatalf("%s %s: status %d: %s", method, req.URL.Path, resp.StatusCode, out)
		}
		if resp.StatusCode < 400 {
			return
		}
		e, err := serveapi.DecodeError(out)
		if err != nil {
			t.Fatalf("%s %s: status %d with an untyped body %q: %v", method, req.URL.Path, resp.StatusCode, out, err)
		}
		if e.Code == "" {
			t.Fatalf("%s %s: status %d error has no code: %s", method, req.URL.Path, resp.StatusCode, out)
		}
		if e.HTTPStatus() != resp.StatusCode {
			t.Fatalf("%s %s: code %q served as %d, want %d", method, req.URL.Path, e.Code, resp.StatusCode, e.HTTPStatus())
		}
	})
}

// gatedServer builds a daemon whose arms block until it is drained, with one
// job (j000001, tenant alice) admitted. drain cancels the blocked arms and
// closes the server, its harness and its observer.
func gatedServer(t *testing.T) (s *serve.Server, drain func()) {
	t.Helper()
	var free atomic.Int64 // 0: every execution blocks on the never-closed gate
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
	s, err := serve.New(serve.Config{
		Harness: h, Obs: sink, Workers: 1,
		MaxTenantJobs: 1, MaxArmsPerJob: 4,
		Lookup: lookup,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(context.Background(), &serveapi.JobSpec{Tenant: "alice",
		Workloads: []string{"compress"}, Inputs: []string{"test"}, Predictors: []string{"bimodal:1KB"}}); err != nil {
		t.Fatal(err)
	}
	return s, func() {
		s.Close()
		h.Close()
		sink.Close()
	}
}
