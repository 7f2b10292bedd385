package sim_test

import (
	"fmt"
	"reflect"
	"testing"

	"branchsim/internal/sim"
	"branchsim/internal/telemetry"
	"branchsim/internal/xrand"
)

// cutSpecs are the table-sampled predictors with a native block kernel: the
// ones whose telemetry runs on the cut-block path.
var cutSpecs = []string{"bimodal:1KB", "ghist:1KB", "gshare:1KB", "bimode:1KB", "2bcgskew:1KB"}

// cutIntervals are the interval lengths the cut-block oracle covers: every
// branch seals, a short odd interval, one shorter than a block, a prime,
// and one longer than a 16K-event chunk's instructions.
var cutIntervals = []uint64{1, 7, 100, 997, 200_003}

// telStream is one event stream as the runner's block protocol sees it:
// ops[i] is the straight-line run charged before branch i, and tail the run
// after the last branch.
type telStream struct {
	pcs   []uint64
	taken []bool
	ops   []uint64
	tail  uint64
}

// newTelStream draws n events from seed: a hot set, a warm tail and cold
// strays (more sites than a small SiteCap holds), and straight-line runs
// that are mostly empty or short, with some that cross up to three
// interval boundaries at once. Long intervals get fewer long runs, so that
// a stream's instructions stay within a few million.
func newTelStream(n int, interval, seed uint64) telStream {
	rng := xrand.New(seed)
	long := 0.15
	if interval > 10_000 {
		long = 0.001
	}
	s := telStream{pcs: make([]uint64, n), taken: make([]bool, n), ops: make([]uint64, n)}
	for i := range s.pcs {
		switch r := rng.Float64(); {
		case r < 0.5:
			s.pcs[i] = 0x40_0000 + uint64(rng.Intn(8))*4
			s.taken[i] = rng.Bool(0.8)
		case r < 0.85:
			s.pcs[i] = 0x50_0000 + uint64(rng.Intn(200))*8
			s.taken[i] = rng.Bool(0.5)
		default:
			s.pcs[i] = 0x60_0000 + uint64(rng.Intn(50_000))*4
			s.taken[i] = rng.Bool(0.3)
		}
		switch r := rng.Float64(); {
		case r < long:
			s.ops[i] = 1 + uint64(rng.Intn(int(3*interval)))
		case r < 0.5:
			s.ops[i] = 1 + uint64(rng.Intn(7))
		}
	}
	s.tail = uint64(rng.Intn(int(2 * interval)))
	return s
}

// runTelemetry runs s through a fresh runner around spec with a collector
// for cfg: per event through Ops and Branch when cutSeed is 0, otherwise
// through RunBlock in blocks whose lengths cutSeed draws (single events,
// short and long blocks, and the whole rest of the stream). It returns the
// runner's metrics and the collector's records.
func runTelemetry(t *testing.T, spec string, cfg telemetry.Config, track bool, s telStream, cutSeed uint64) (sim.Metrics, telemetry.Records) {
	t.Helper()
	tel := telemetry.New(cfg, nil)
	opts := []sim.Option{sim.WithLabels("cut", "cut"), sim.WithTelemetry(tel)}
	if track {
		opts = append(opts, sim.WithCollisions())
	}
	r := sim.NewRunner(mustNew(t, spec), opts...)
	if !r.BatchKernel() {
		t.Fatalf("%s has no block kernel: the oracle would compare the per-event path with itself", spec)
	}
	if cutSeed == 0 {
		for i, pc := range s.pcs {
			if s.ops[i] != 0 {
				r.Ops(s.ops[i])
			}
			r.Branch(pc, s.taken[i])
		}
	} else {
		rng := xrand.New(cutSeed)
		for lo := 0; lo < len(s.pcs); {
			var k int
			switch rng.Intn(4) {
			case 0:
				k = 1
			case 1:
				k = 1 + rng.Intn(8)
			case 2:
				k = 1 + rng.Intn(3000)
			default:
				k = len(s.pcs)
			}
			hi := min(lo+k, len(s.pcs))
			r.RunBlock(s.pcs[lo:hi], s.taken[lo:hi], s.ops[lo:hi])
			lo = hi
		}
	}
	if s.tail != 0 {
		r.Ops(s.tail)
	}
	m := r.Metrics()
	return m, tel.Finish()
}

// cutBlocksDiff compares the per-event run of s with two cut-block runs and
// describes the first difference, or returns "".
func cutBlocksDiff(t *testing.T, spec string, cfg telemetry.Config, track bool, s telStream, cutSeeds ...uint64) string {
	t.Helper()
	wantM, wantR := runTelemetry(t, spec, cfg, track, s, 0)
	for _, seed := range cutSeeds {
		gotM, gotR := runTelemetry(t, spec, cfg, track, s, seed)
		if d := wantM.Diff(gotM); d != "" {
			return fmt.Sprintf("cut seed %d: metrics diverge: %s", seed, d)
		}
		if !reflect.DeepEqual(wantR, gotR) {
			return fmt.Sprintf("cut seed %d: telemetry records diverge: %s", seed, recordsDiff(wantR, gotR))
		}
	}
	return ""
}

// recordsDiff names the first record at which got departs from want.
func recordsDiff(want, got telemetry.Records) string {
	if d := firstDiff("interval", want.Intervals, got.Intervals); d != "" {
		return d
	}
	if d := firstDiff("table_stats", want.TableStats, got.TableStats); d != "" {
		return d
	}
	if d := firstDiff("tagged_table_stats", want.TaggedStats, got.TaggedStats); d != "" {
		return d
	}
	if d := firstDiff("confidence", want.Confidence, got.Confidence); d != "" {
		return d
	}
	return fmt.Sprintf("topk: got %+v, want %+v", got.TopK, want.TopK)
}

func firstDiff[T any](kind string, want, got []T) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d %s records, want %d", len(got), kind, len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			return fmt.Sprintf("%s[%d]: got %+v, want %+v", kind, i, got[i], want[i])
		}
	}
	return ""
}

// cutConfig is the oracle's collector setup: variant 0 tracks collisions,
// samples tables and keeps fewer sites than the stream has; variant 1
// samples tables with collisions untracked (the kernel still reports the
// raw collisions that table stats' tags produce, and none may count) and
// asks for confidence, which these predictors do not grade; variant 2 is
// the interval series alone.
func cutConfig(interval uint64, variant int) (telemetry.Config, bool) {
	switch variant % 3 {
	case 0:
		return telemetry.Config{Interval: interval, TableStats: true, TopK: 16, SiteCap: 24}, true
	case 1:
		return telemetry.Config{Interval: interval, TableStats: true, TopK: 16, Confidence: true}, false
	default:
		return telemetry.Config{Interval: interval}, true
	}
}

// TestTelemetryCutBlocksMatchPerEvent is the oracle for telemetry on the
// block path: a runner that cuts kernel blocks at the collector's seal
// points and feeds it a segment at a time must produce the same metrics
// and the same records, table samples included, as one fed per event.
func TestTelemetryCutBlocksMatchPerEvent(t *testing.T) {
	for _, spec := range cutSpecs {
		for _, interval := range cutIntervals {
			// Every seal walks every table: keep the all-sealing intervals'
			// streams short.
			n := 4000
			if interval < 10 {
				n = 1200
			}
			s := newTelStream(n, interval, interval*31+uint64(len(spec)))
			for variant := 0; variant < 3; variant++ {
				cfg, track := cutConfig(interval, variant)
				if d := cutBlocksDiff(t, spec, cfg, track, s, 1, 2); d != "" {
					t.Errorf("%s interval=%d variant=%d: %s", spec, interval, variant, d)
				}
			}
		}
	}
}

// FuzzTelemetryCutBlocks runs the same oracle over fuzz-chosen streams,
// intervals, collector setups and block cuts.
func FuzzTelemetryCutBlocks(f *testing.F) {
	for i, interval := range cutIntervals {
		f.Add(uint64(i+1), uint8(i), uint32(interval), uint8(i), uint64(i+7))
	}
	f.Add(uint64(99), uint8(4), uint32(13), uint8(1), uint64(3))
	f.Fuzz(func(t *testing.T, seed uint64, sel uint8, interval uint32, variant uint8, cutSeed uint64) {
		iv := uint64(interval%300_000) + 1
		n := 600
		if iv < 10 {
			n = 200
		}
		spec := cutSpecs[int(sel)%len(cutSpecs)]
		cfg, track := cutConfig(iv, int(variant))
		if d := cutBlocksDiff(t, spec, cfg, track, newTelStream(n, iv, seed), cutSeed|1); d != "" {
			t.Fatalf("%s interval=%d variant=%d: %s", spec, iv, variant, d)
		}
	})
}
