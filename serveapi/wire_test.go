package serveapi

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
)

func TestJobSpecNormalizeCanonicalizes(t *testing.T) {
	s := &JobSpec{
		Workloads:  []string{"compress"},
		Inputs:     []string{"test"},
		Predictors: []string{"GShare:16k : h=8", "2bc-gskew", "bimodal:2048B"},
	}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	want := []string{"gshare:16KB:h=8", "2bcgskew:8KB", "bimodal:2KB"}
	if !reflect.DeepEqual(s.Predictors, want) {
		t.Errorf("canonical predictors = %v, want %v", s.Predictors, want)
	}
	if !reflect.DeepEqual(s.Schemes, []string{"none"}) {
		t.Errorf("default schemes = %v, want [none]", s.Schemes)
	}
	if s.Type != TypeJobSpec || s.V != SchemaV1 {
		t.Errorf("envelope = %q/%d, want %q/%d", s.Type, s.V, TypeJobSpec, SchemaV1)
	}
}

func TestJobSpecNormalizeNamesBadToken(t *testing.T) {
	s := &JobSpec{
		Workloads:  []string{"compress"},
		Inputs:     []string{"test"},
		Predictors: []string{"gshare:16KB", "gsharre:8KB"},
	}
	err := s.Normalize()
	if err == nil {
		t.Fatal("want error for unknown scheme")
	}
	if !strings.Contains(err.Error(), `"gsharre"`) {
		t.Errorf("error %q does not name the bad token", err)
	}

	s = &JobSpec{Workloads: []string{"compress"}, Inputs: []string{"test"},
		Predictors: []string{"gshare:8KB:z=3"}}
	if err := s.Normalize(); err == nil || !strings.Contains(err.Error(), `"z"`) {
		t.Errorf("option error = %v, want one naming key \"z\"", err)
	}

	for _, s := range []*JobSpec{
		{Inputs: []string{"test"}, Predictors: []string{"gshare"}},
		{Workloads: []string{"compress"}, Predictors: []string{"gshare"}},
		{Workloads: []string{"compress"}, Inputs: []string{"test"}},
	} {
		if err := s.Normalize(); err == nil {
			t.Errorf("empty dimension %+v: want error", s)
		}
	}
}

// TestJobSpecNormalizeRejectsHugeTables: a table budget that overflows, or
// that no experiment needs and no host could allocate, must stop at the
// job's front door rather than reach a predictor constructor.
func TestJobSpecNormalizeRejectsHugeTables(t *testing.T) {
	for _, pred := range []string{"gshare:17592186044416MB", "gshare:1048576MB"} {
		s := &JobSpec{Workloads: []string{"compress"}, Inputs: []string{"test"},
			Predictors: []string{"gshare:8KB", pred}}
		err := s.Normalize()
		if err == nil {
			t.Errorf("Normalize accepted %q as %v", pred, s.Predictors)
			continue
		}
		if size := strings.TrimPrefix(pred, "gshare:"); !strings.Contains(err.Error(), `"`+size+`"`) {
			t.Errorf("error %q does not name the bad size %q", err, size)
		}
	}
}

func TestJobSpecArmsOrderAndCount(t *testing.T) {
	s := &JobSpec{
		Workloads:  []string{"compress", "go"},
		Inputs:     []string{"test"},
		Predictors: []string{"bimodal:1KB", "gshare:1KB"},
	}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	arms := s.Arms()
	if len(arms) != 4 {
		t.Fatalf("arm count = %d, want 4", len(arms))
	}
	want := Arm{Workload: "compress", Input: "test", Predictor: "bimodal:1KB", Scheme: "none"}
	if arms[0] != want {
		t.Errorf("arms[0] = %+v, want %+v", arms[0], want)
	}
	if got := arms[3].Key(); got != "go/test/gshare:1KB/none" {
		t.Errorf("arms[3].Key() = %q", got)
	}
}

// TestWireRoundTrips encodes each message type and decodes it back through
// its envelope-checking decoder.
func TestWireRoundTrips(t *testing.T) {
	spec := &JobSpec{Tenant: "alice", Name: "grid-1",
		Workloads: []string{"compress"}, Inputs: []string{"test"},
		Predictors: []string{"gshare:8KB"}, Schemes: []string{"none", "static95"}}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	data, _ := json.Marshal(spec)
	spec2, err := DecodeJobSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, spec2) {
		t.Errorf("job spec round trip: got %+v, want %+v", spec2, spec)
	}

	sub := &Submitted{ID: "j000001", Arms: 2}
	sub.Stamp()
	data, _ = json.Marshal(sub)
	sub2, err := DecodeSubmitted(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sub, sub2) {
		t.Errorf("submitted round trip: got %+v, want %+v", sub2, sub)
	}

	st := &JobStatus{ID: "j000001", Tenant: "alice", State: StateDone,
		ArmsTotal: 1, ArmsDone: 1,
		Arms: []ArmResult{{
			Arm:     Arm{Workload: "compress", Input: "test", Predictor: "gshare:8KB", Scheme: "none"},
			State:   ArmDone,
			Metrics: &Metrics{Instructions: 1000, Branches: 100, Taken: 60, Mispredicts: 7, CollisionsTracked: true, Collisions: 3, Destructive: 2, Constructive: 1},
		}}}
	st.Stamp()
	data, _ = json.Marshal(st)
	st2, err := DecodeJobStatus(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, st2) {
		t.Errorf("job status round trip: got %+v, want %+v", st2, st)
	}

	apiErr := Errorf(CodeQuotaJobs, "tenant %q has %d jobs in flight", "alice", 4)
	data, _ = json.Marshal(apiErr)
	apiErr2, err := DecodeError(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(apiErr, apiErr2) {
		t.Errorf("error round trip: got %+v, want %+v", apiErr2, apiErr)
	}
	if !IsCode(apiErr2, CodeQuotaJobs) {
		t.Error("IsCode(CodeQuotaJobs) = false")
	}
}

// TestDecodeRejectsForeignSchema proves every decoder fails with a
// *SchemaError on unknown versions and types rather than misparsing.
func TestDecodeRejectsForeignSchema(t *testing.T) {
	cases := []struct {
		name string
		data string
		dec  func([]byte) (any, error)
	}{
		{"future version", `{"type":"job_spec","v":2,"workloads":["x"]}`,
			func(b []byte) (any, error) { return DecodeJobSpec(b) }},
		{"wrong type", `{"type":"job_status","v":1}`,
			func(b []byte) (any, error) { return DecodeJobSpec(b) }},
		{"missing envelope", `{"workloads":["x"]}`,
			func(b []byte) (any, error) { return DecodeJobSpec(b) }},
		{"status future version", `{"type":"job_status","v":99}`,
			func(b []byte) (any, error) { return DecodeJobStatus(b) }},
		{"submitted wrong type", `{"type":"error","v":1}`,
			func(b []byte) (any, error) { return DecodeSubmitted(b) }},
		{"error future version", `{"type":"error","v":7}`,
			func(b []byte) (any, error) { return DecodeError(b) }},
	}
	for _, tc := range cases {
		_, err := tc.dec([]byte(tc.data))
		var se *SchemaError
		if !errors.As(err, &se) {
			t.Errorf("%s: err = %v, want *SchemaError", tc.name, err)
		}
	}
}

func TestMetricsDerived(t *testing.T) {
	m := Metrics{Instructions: 2000, Branches: 400, Mispredicts: 10}
	if got := m.MISPKI(); got != 5 {
		t.Errorf("MISPKI = %v, want 5", got)
	}
	if got := m.Accuracy(); got != 0.975 {
		t.Errorf("Accuracy = %v, want 0.975", got)
	}
	var zero Metrics
	if zero.MISPKI() != 0 || zero.Accuracy() != 0 {
		t.Error("zero metrics should have zero derived values")
	}
}

func TestHTTPStatusMapping(t *testing.T) {
	for code, want := range map[string]int{
		CodeBadRequest: 400, CodeBadSpec: 400, CodeQuotaJobs: 429,
		CodeQuotaArms: 413, CodeDraining: 503, CodeNotFound: 404, "other": 500,
	} {
		if got := Errorf(code, "x").HTTPStatus(); got != want {
			t.Errorf("HTTPStatus(%s) = %d, want %d", code, got, want)
		}
	}
}
