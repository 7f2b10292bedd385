package serveapi

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// FuzzDecodeJobSpec feeds arbitrary bodies through the daemon's admission
// path, DecodeJobSpec then Normalize. Neither may panic; a body without the
// {type:"job_spec",v:1} envelope must be refused; and a normalized spec is a
// fixed point of Normalize: its predictor specs are canonical (they re-parse
// to themselves) and its schemes are already lowercased and trimmed.
func FuzzDecodeJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{"type":"job_spec","v":1,"tenant":"alice","workloads":["compress"],"inputs":["test"],"predictors":["GShare:16k : h=8","2bc-gskew"],"schemes":[" Static95 ",""]}`,
		`{"type":"job_spec","v":1,"workloads":[],"inputs":[],"predictors":[]}`,
		`{"type":"job_spec","v":1,"workloads":["gcc"],"inputs":["ref"],"predictors":["gshare:8KB:q=1"]}`,
		`{"type":"job_spec","v":1,"workloads":["gcc"],"inputs":["ref"],"predictors":["gshare:` + strings.Repeat("9", 4096) + `KB"]}`,
		`{"type":"job_spec","v":2,"workloads":["gcc"],"inputs":["ref"],"predictors":["gshare"]}`,
		`{"type":"job_status","v":1}`,
		`{"workloads":["gcc"],"inputs":["ref"],"predictors":["gshare"]}`,
		`[]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := DecodeJobSpec(body)
		var head envelope
		if json.Unmarshal(body, &head) != nil || head.Type != TypeJobSpec || head.V != SchemaV1 {
			if err == nil {
				t.Fatalf("DecodeJobSpec(%q) accepted envelope %+v", body, head)
			}
			return
		}
		if err != nil {
			return
		}
		if spec.Normalize() != nil {
			return
		}
		for _, sch := range spec.Schemes {
			if sch == "" || sch != strings.ToLower(strings.TrimSpace(sch)) {
				t.Fatalf("Normalize left scheme %q", sch)
			}
		}
		before := *spec
		before.Predictors = append([]string(nil), spec.Predictors...)
		before.Schemes = append([]string(nil), spec.Schemes...)
		if err := spec.Normalize(); err != nil {
			t.Fatalf("second Normalize of %+v: %v", before, err)
		}
		if !reflect.DeepEqual(*spec, before) {
			t.Fatalf("Normalize is not idempotent: %+v became %+v", before, *spec)
		}
	})
}
