package predictor

import (
	"reflect"
	"strings"
	"testing"
)

func TestNewValidSpecs(t *testing.T) {
	cases := []struct {
		spec string
		name string
	}{
		{"bimodal", "bimodal"},
		{"bimodal:2KB", "bimodal"},
		{"gshare:16KB", "gshare"},
		{"gshare:16KB:h=4", "gshare(h=4)"},
		{"GSHARE:16kb", "gshare"},
		{"ghist:512B", "ghist"},
		{"gag:1K", "ghist"},
		{"bi-mode:4K", "bimode"},
		{"2bcgskew:8KB", "2bcgskew"},
		{"2bc-gskew:8KB", "2bcgskew"},
		{"egskew:2KB", "gskew"},
		{"pag:2KB", "local"},
		{"combining:2KB", "mcfarling"},
		{"taken", "taken"},
		{"not-taken", "nottaken"},
	}
	for _, c := range cases {
		p, err := New(c.spec)
		if err != nil {
			t.Errorf("New(%q): %v", c.spec, err)
			continue
		}
		if p.Name() != c.name {
			t.Errorf("New(%q).Name() = %q, want %q", c.spec, p.Name(), c.name)
		}
	}
}

func TestNewInvalidSpecs(t *testing.T) {
	for _, spec := range []string{
		"", "ittage:8KB", "gshare:-1KB", "gshare:0", "gshare:xKB",
		"gshare:8KB:h", "gshare:8KB:h=x", "gshare:8QB",
	} {
		if _, err := New(spec); err == nil {
			t.Errorf("New(%q) succeeded, want error", spec)
		}
	}
}

func TestNewErrorMentionsKnownSchemes(t *testing.T) {
	_, err := New("nosuch:1KB")
	if err == nil || !strings.Contains(err.Error(), "gshare") {
		t.Errorf("unknown-scheme error should list known schemes: %v", err)
	}
}

func TestMustNewPanicsOnBadSpec(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("MustNew did not panic")
		}
	}()
	MustNew("bogus")
}

func TestParseSize(t *testing.T) {
	cases := map[string]int{
		"512":   512,
		"512B":  512,
		"8K":    8192,
		"8KB":   8192,
		"8kb":   8192,
		"1M":    1 << 20,
		"2MB":   2 << 20,
		" 4KB ": 4096,
	}
	for in, want := range cases {
		got, err := ParseSize(in)
		if err != nil || got != want {
			t.Errorf("ParseSize(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, in := range []string{"", "-4KB", "0", "KB", "4GB2", "17MB", "16385K", "16777217",
		"17592186044416MB", "9223372036854775807K"} {
		if _, err := ParseSize(in); err == nil {
			t.Errorf("ParseSize(%q) succeeded", in)
		}
	}
}

func TestFormatSizeRoundTrip(t *testing.T) {
	for _, bytes := range []int{512, 1 << 10, 8 << 10, 64 << 10, 1 << 20, 3 << 20, 1000} {
		s := FormatSize(bytes)
		back, err := ParseSize(s)
		if err != nil || back != bytes {
			t.Errorf("FormatSize(%d) = %q, parses back to %d, %v", bytes, s, back, err)
		}
	}
}

func TestDefaultSizeIs8KB(t *testing.T) {
	p := MustNew("bimodal")
	want := NewBimodal(8 << 10).SizeBits()
	if p.SizeBits() != want {
		t.Errorf("default bimodal size = %d bits, want %d", p.SizeBits(), want)
	}
}

func TestNamesSortedAndComplete(t *testing.T) {
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() not sorted: %v", names)
		}
	}
	for _, n := range names {
		if _, err := New(n); err != nil {
			t.Errorf("listed scheme %q does not construct: %v", n, err)
		}
	}
}

func TestSpecStringRoundTrip(t *testing.T) {
	cases := map[string]string{
		"gshare":          "gshare:8KB", // default size made explicit
		"gshare:16KB":     "gshare:16KB",
		"GSHARE:16kb":     "gshare:16KB", // case normalized
		"gshare:16384":    "gshare:16KB", // bytes rendered human-readable
		"gshare:16KB:h=8": "gshare:16KB:h=8",
		"gag:1K":          "ghist:1KB", // alias resolved
		"bi-mode:4K":      "bimode:4KB",
		"2bc-gskew:8KB":   "2bcgskew:8KB",
		"taken":           "taken", // sizeless schemes render bare
		"not-taken":       "nottaken",
		"combining:2KB":   "mcfarling:2KB",
		" gshare : 2KB ":  "gshare:2KB", // whitespace tolerated
		"gshare:1536":     "gshare:1536B",
		// An h at or above the index width is the full-width default
		// (NewGShareHist clamps it), so it is dropped: one predictor, one key.
		"gshare:1KB:h=20": "gshare:1KB",
		"gshare:1KB:h=12": "gshare:1KB",
		"gshare:1KB:h=11": "gshare:1KB:h=11",
		"gshare:h=64:1KB": "gshare:1KB",
	}
	for in, want := range cases {
		spec, err := ParseSpec(in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", in, err)
			continue
		}
		if got := spec.String(); got != want {
			t.Errorf("ParseSpec(%q).String() = %q, want %q", in, got, want)
		}
		// The canonical form must be a fixed point: parsing it again yields
		// the same string, so journal records and checkpoint keys are stable.
		again, err := ParseSpec(want)
		if err != nil {
			t.Errorf("canonical form %q does not reparse: %v", want, err)
			continue
		}
		if again.String() != want {
			t.Errorf("canonical form not a fixed point: %q -> %q", want, again.String())
		}
	}
}

func TestCanonical(t *testing.T) {
	if got := Canonical("gshare:16kb:h=8"); got != "gshare:16KB:h=8" {
		t.Errorf("Canonical = %q", got)
	}
	// Unparseable and empty specs pass through unchanged — Canonical is a
	// labelling helper, not a validator.
	if got := Canonical("nosuch:1KB"); got != "nosuch:1KB" {
		t.Errorf("Canonical(bad) = %q", got)
	}
	if got := Canonical(""); got != "" {
		t.Errorf("Canonical(\"\") = %q", got)
	}
}

func TestSpecErrorsNameOffendingToken(t *testing.T) {
	cases := map[string][]string{
		"nosuch:1KB":       {`"nosuch"`, "accepted"},
		"gshare:8KB:h":     {`"h"`}, // bare token parses as a size and fails as one
		"gshare:8KB:h=4,x": {`"x"`, "key=value"},
		"gshare:8KB:q=3":   {`"q"`, "accepted"},
		"gshare:8KB:h=x":   {`"h"`},
		"gshare:8KB:h=65":  {`"h"`, "65"},
		"gshare:8KB:h=-1":  {`"h"`, "-1"},
		// n*mult overflowed to 0 here once, canonicalising to "gshare:0B",
		// which ParseSpec itself rejects.
		"gshare:17592186044416MB": {`"17592186044416MB"`},
		"gshare:1048576MB":        {`"1048576MB"`, "16MB"},
		// h is gshare's alone: on any other scheme it would build the same
		// predictor as the spec without it, under a second key.
		"bimodal:8KB:h=3": {`"h"`, `"bimodal"`},
		"tage:8KB:h=1":    {`"h"`, `"tage"`},
		"nottaken:h=3":    {`"h"`, `"nottaken"`},
	}
	for spec, wants := range cases {
		_, err := ParseSpec(spec)
		if err == nil {
			t.Errorf("ParseSpec(%q) succeeded, want error", spec)
			continue
		}
		for _, w := range wants {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("ParseSpec(%q) error %q does not mention %s", spec, err, w)
			}
		}
	}
}

func TestEntriesForBytes(t *testing.T) {
	cases := map[int]int{
		1:    4,
		2:    8,
		1024: 4096,
		1023: 2048,
		0:    4, // clamped to 1 byte
	}
	for bytes, want := range cases {
		if got := entriesForBytes(bytes); got != want {
			t.Errorf("entriesForBytes(%d) = %d, want %d", bytes, got, want)
		}
	}
}

// FuzzParseSpec checks the round trip Spec.String documents: every spec
// ParseSpec accepts has a budget within maxSize and renders to a canonical
// string that parses back to an equal Spec.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"gshare", "gshare:16KB:h=8", "GSHARE:16kb", "gag:1K", "taken:16KB",
		"2bc-gskew:8KB", "gshare:1536", " gshare : 2KB ", "bimodal:16MB",
		"gshare:17592186044416MB", "gshare:1048576MB", "gshare:8KB:h=64",
		"tage:8KB:h=1,h=2", "nottaken:h=3", "gshare::8K:",
		"bimodal:8KB:h=3", "gshare:1KB:h=20", "gshare:1KB:h=12", "gshare:1KB:h=11",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ParseSpec(in)
		if err != nil {
			return
		}
		if s.Size <= 0 || s.Size > maxSize {
			t.Fatalf("ParseSpec(%q): size %d outside (0, %d]", in, s.Size, maxSize)
		}
		again, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q).String() = %q does not reparse: %v", in, s.String(), err)
		}
		if !reflect.DeepEqual(again, s) {
			t.Fatalf("ParseSpec(%q) = %+v, but its canonical form %q parses to %+v", in, s, s.String(), again)
		}
		// One predictor, one key: an option the canonical form keeps must
		// change the predictor it builds.
		if len(s.Opts) == 0 {
			return
		}
		plain := s
		plain.Opts = nil
		p, err := s.Build()
		if err != nil {
			t.Fatalf("ParseSpec(%q).Build: %v", in, err)
		}
		q, _ := plain.Build()
		if p.Name() == q.Name() {
			t.Fatalf("ParseSpec(%q) = %q builds the same %q predictor as %q", in, s.String(), p.Name(), plain.String())
		}
	})
}
