package predictor

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// DefaultSize is the table budget a spec without an explicit size gets: the
// 8KB point most of the paper's tables use.
const DefaultSize = 8 * 1024

// maxSize is the largest table budget ParseSize accepts: 256 times the
// largest size any experiment uses (64KB). A spec is untrusted input — the
// sweep service parses specs straight off HTTP requests — and a table
// allocation too large for memory kills the process beyond recover's reach.
const maxSize = 16 << 20

// maxHist is the longest global history a spec's h option may ask for: the
// width of the history register.
const maxHist = 64

// Spec is one predictor specification, parsed: a canonical scheme name (all
// aliases resolved), a table budget in bytes, and scheme options. The zero
// value is not a valid spec; build one with ParseSpec.
type Spec struct {
	// Name is the canonical scheme name ("gshare", "bimode", ...).
	Name string
	// Size is the table budget in bytes. Ignored by sizeless schemes
	// (taken, nottaken).
	Size int
	// Opts are scheme options (today: "h", the gshare history length).
	// Nil when the spec carries none.
	Opts map[string]int
}

// scheme is one table entry: how to build the predictor, and whether the
// scheme has a table budget at all.
type scheme struct {
	build    func(s Spec) Predictor
	sizeless bool
}

var schemes = map[string]*scheme{
	"bimodal": {build: func(s Spec) Predictor { return NewBimodal(s.Size) }},
	"ghist":   {build: func(s Spec) Predictor { return NewGHist(s.Size) }},
	"gshare": {build: func(s Spec) Predictor {
		if h, ok := s.Opts["h"]; ok {
			return NewGShareHist(s.Size, h)
		}
		return NewGShare(s.Size)
	}},
	"bimode":     {build: func(s Spec) Predictor { return NewBiMode(s.Size) }},
	"2bcgskew":   {build: func(s Spec) Predictor { return NewTwoBcGskew(s.Size) }},
	"agree":      {build: func(s Spec) Predictor { return NewAgree(s.Size) }},
	"gskew":      {build: func(s Spec) Predictor { return NewGSkew(s.Size) }},
	"yags":       {build: func(s Spec) Predictor { return NewYAGS(s.Size) }},
	"local":      {build: func(s Spec) Predictor { return NewLocal(s.Size) }},
	"mcfarling":  {build: func(s Spec) Predictor { return NewMcFarling(s.Size) }},
	"tage":       {build: func(s Spec) Predictor { return NewTAGE(s.Size) }},
	"perceptron": {build: func(s Spec) Predictor { return NewPerceptron(s.Size) }},
	"taken":      {sizeless: true, build: func(Spec) Predictor { return AlwaysTaken{} }},
	"nottaken":   {sizeless: true, build: func(Spec) Predictor { return AlwaysNotTaken{} }},
}

// aliases maps accepted spelling variants to canonical scheme names.
var aliases = map[string]string{
	"gag":       "ghist",
	"bi-mode":   "bimode",
	"2bc-gskew": "2bcgskew",
	"egskew":    "gskew",
	"e-gskew":   "gskew",
	"pag":       "local",
	"combining": "mcfarling",
	"not-taken": "nottaken",
}

// acceptedOpts lists the option keys ParseSpec accepts, sorted.
var acceptedOpts = []string{"h"}

func optAccepted(k string) bool {
	for _, a := range acceptedOpts {
		if k == a {
			return true
		}
	}
	return false
}

// ParseSpec parses a spec string of the form
//
//	name[:size][:key=value,...]
//
// where size accepts a decimal byte count with an optional B/K/KB/M/MB
// suffix (e.g. "gshare:16KB", "2bcgskew:8K", "bimodal:2048B") and defaults
// to DefaultSize. Recognized names:
//
//	bimodal, ghist, gshare, bimode, 2bcgskew    (the paper's five)
//	agree, gskew, yags, local, mcfarling        (contemporary extensions)
//	tage, perceptron                            (modern successors)
//	taken, nottaken                             (trivial static baselines)
//
// Sizes above 16MB are rejected. Options: h=<n>, 0 ≤ n ≤ 64, sets the gshare
// global history length. Errors name the offending token: an unknown scheme
// lists the accepted names, an unknown option key lists the accepted keys.
func ParseSpec(spec string) (Spec, error) {
	parts := strings.Split(spec, ":")
	name := strings.ToLower(strings.TrimSpace(parts[0]))
	if canon, ok := aliases[name]; ok {
		name = canon
	}
	if _, ok := schemes[name]; !ok {
		return Spec{}, fmt.Errorf("predictor: unknown scheme %q in spec %q (accepted: %s)", name, spec, strings.Join(Names(), ", "))
	}
	s := Spec{Name: name, Size: DefaultSize}
	for _, part := range parts[1:] {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if strings.Contains(part, "=") {
			for _, kv := range strings.Split(part, ",") {
				k, v, ok := strings.Cut(kv, "=")
				if !ok {
					return Spec{}, fmt.Errorf("predictor: spec %q: bad option %q (want key=value)", spec, kv)
				}
				k = strings.ToLower(strings.TrimSpace(k))
				if !optAccepted(k) {
					return Spec{}, fmt.Errorf("predictor: spec %q: unknown option key %q (accepted: %s)", spec, k, strings.Join(acceptedOpts, ", "))
				}
				n, err := strconv.Atoi(strings.TrimSpace(v))
				if err != nil {
					return Spec{}, fmt.Errorf("predictor: spec %q: option %q: value %q is not an integer", spec, k, strings.TrimSpace(v))
				}
				if n < 0 || n > maxHist {
					return Spec{}, fmt.Errorf("predictor: spec %q: option %q: value %d outside [0, %d]", spec, k, n, maxHist)
				}
				if s.Opts == nil {
					s.Opts = map[string]int{}
				}
				s.Opts[k] = n
			}
			continue
		}
		n, err := ParseSize(part)
		if err != nil {
			return Spec{}, fmt.Errorf("predictor: spec %q: %w", spec, err)
		}
		s.Size = n
	}
	if schemes[name].sizeless {
		// The size is ignored and String drops it; keep the parse of the
		// canonical form equal to this one.
		s.Size = DefaultSize
	}
	return s, nil
}

// String renders the spec in canonical form — lowercase canonical name,
// explicit size (paper-style "16KB" units), options sorted by key — e.g.
// "gshare:16KB:h=8". ParseSpec(s.String()) round-trips to an equal Spec, so
// canonical strings are stable memoization and checkpoint keys. Sizeless
// schemes render as the bare name.
func (s Spec) String() string {
	var b strings.Builder
	b.WriteString(s.Name)
	if sc := schemes[s.Name]; sc == nil || !sc.sizeless {
		b.WriteByte(':')
		b.WriteString(FormatSize(s.Size))
	}
	keys := make([]string, 0, len(s.Opts))
	for k := range s.Opts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, ":%s=%d", k, s.Opts[k])
	}
	return b.String()
}

// Build constructs the predictor the spec describes.
func (s Spec) Build() (Predictor, error) {
	sc, ok := schemes[s.Name]
	if !ok {
		return nil, fmt.Errorf("predictor: unknown scheme %q (accepted: %s)", s.Name, strings.Join(Names(), ", "))
	}
	return sc.build(s), nil
}

// Canonical normalizes a spec string to its canonical form ("gshare" →
// "gshare:8KB", "GShare:16k : h=8" → "gshare:16KB:h=8"). Invalid specs are
// returned unchanged so the parse error surfaces where the spec is actually
// used (with its proper message) rather than here; empty stays empty (the
// harness's bias-only profile marker).
func Canonical(spec string) string {
	if strings.TrimSpace(spec) == "" {
		return ""
	}
	s, err := ParseSpec(spec)
	if err != nil {
		return spec
	}
	return s.String()
}

// New builds a predictor from a spec string — ParseSpec followed by Build.
// See ParseSpec for the accepted grammar.
func New(spec string) (Predictor, error) {
	s, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	return s.Build()
}

// MustNew is New for known-good literal specs in tests and examples.
func MustNew(spec string) Predictor {
	p, err := New(spec)
	if err != nil {
		panic(err)
	}
	return p
}

// Names lists the scheme names New accepts (canonical spellings), sorted.
func Names() []string {
	names := make([]string, 0, len(schemes))
	for name := range schemes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ParseSize parses a byte-count string with an optional B/K/KB/M/MB suffix
// (case-insensitive): "8KB" → 8192, "512" → 512. Sizes above 16MB are
// rejected.
func ParseSize(s string) (int, error) {
	u := strings.ToUpper(strings.TrimSpace(s))
	mult := 1
	switch {
	case strings.HasSuffix(u, "MB"):
		mult, u = 1<<20, strings.TrimSuffix(u, "MB")
	case strings.HasSuffix(u, "KB"):
		mult, u = 1<<10, strings.TrimSuffix(u, "KB")
	case strings.HasSuffix(u, "M"):
		mult, u = 1<<20, strings.TrimSuffix(u, "M")
	case strings.HasSuffix(u, "K"):
		mult, u = 1<<10, strings.TrimSuffix(u, "K")
	case strings.HasSuffix(u, "B"):
		u = strings.TrimSuffix(u, "B")
	}
	n, err := strconv.Atoi(strings.TrimSpace(u))
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("invalid size %q", s)
	}
	if n > maxSize/mult {
		return 0, fmt.Errorf("size %q exceeds the %s maximum", s, FormatSize(maxSize))
	}
	return n * mult, nil
}

// FormatSize renders a byte count the way the paper's axes do: "8KB".
func FormatSize(bytes int) string {
	switch {
	case bytes >= 1<<20 && bytes%(1<<20) == 0:
		return fmt.Sprintf("%dMB", bytes>>20)
	case bytes >= 1<<10 && bytes%(1<<10) == 0:
		return fmt.Sprintf("%dKB", bytes>>10)
	default:
		return fmt.Sprintf("%dB", bytes)
	}
}
