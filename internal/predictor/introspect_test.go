package predictor

import (
	"math"
	"math/bits"
	"reflect"
	"testing"

	"branchsim/internal/obs"
	"branchsim/internal/xrand"
)

// introspectablePredictors builds every scheme that implements Introspector
// at a small size: the paper's five (bimodal, ghist, gshare, bimode,
// 2bcgskew) plus the modern successors tage and perceptron.
func introspectablePredictors() map[string]Predictor {
	return map[string]Predictor{
		"bimodal":    NewBimodal(1 << 10),
		"ghist":      NewGHist(1 << 10),
		"gshare":     NewGShare(1 << 10),
		"bimode":     NewBiMode(1 << 10),
		"2bcgskew":   NewTwoBcGskew(1 << 10),
		"tage":       NewTAGE(1 << 12),
		"perceptron": NewPerceptron(1 << 10),
	}
}

// expectedTables is how many distinct counter tables each scheme exposes.
// tage reports its bimodal base plus the five tagged banks; perceptron one
// weight table.
var expectedTables = map[string]int{
	"bimodal": 1, "ghist": 1, "gshare": 1, "bimode": 3, "2bcgskew": 4,
	"tage": 6, "perceptron": 1,
}

// fullSharing lists the schemes whose tables all carry ownership-switch
// tracking; tage's tagged banks and perceptron's weight vectors express
// sharing through tags/allocation instead, so their SharingHist stays nil.
var fullSharing = map[string]bool{
	"bimodal": true, "ghist": true, "gshare": true, "bimode": true, "2bcgskew": true,
}

func TestIntrospectAllPredictors(t *testing.T) {
	for name, p := range introspectablePredictors() {
		in, ok := p.(Introspector)
		if !ok {
			t.Errorf("%s does not implement Introspector", name)
			continue
		}
		in.EnableTableStats()
		// Run a stream with enough sites to force sharing in small tables.
		for i := 0; i < 20000; i++ {
			pc := 0x1000 + uint64(i%997)*4
			p.Predict(pc)
			p.Update(pc, i%3 != 0)
		}
		stats := in.Introspect()
		if len(stats) != expectedTables[name] {
			t.Errorf("%s: got %d tables, want %d", name, len(stats), expectedTables[name])
			continue
		}
		for _, s := range stats {
			if s.Name == "" {
				t.Errorf("%s: table with empty name", name)
			}
			if s.Entries <= 0 {
				t.Errorf("%s/%s: entries = %d", name, s.Name, s.Entries)
			}
			var ctrSum uint64
			for _, c := range s.Counters {
				ctrSum += c
			}
			if ctrSum != uint64(s.Entries) {
				t.Errorf("%s/%s: counter distribution sums to %d, want %d", name, s.Name, ctrSum, s.Entries)
			}
			if s.Occupied <= 0 || s.Occupied > s.Entries {
				t.Errorf("%s/%s: occupied = %d of %d", name, s.Name, s.Occupied, s.Entries)
			}
			if s.Entropy < 0 || s.Entropy > 2 {
				t.Errorf("%s/%s: entropy = %v, want within [0,2]", name, s.Name, s.Entropy)
			}
			if fullSharing[name] && s.SharingHist == nil {
				t.Errorf("%s/%s: no sharing histogram", name, s.Name)
			}
			if s.SharingHist != nil {
				var shareSum uint64
				for _, b := range s.SharingHist {
					shareSum += b
				}
				if shareSum != uint64(s.Entries) {
					t.Errorf("%s/%s: sharing histogram sums to %d, want %d", name, s.Name, shareSum, s.Entries)
				}
			}
		}
	}
}

// naiveStats is table.stats written the plain way, one histogram per loop,
// for TestTableStatsMatchesNaive to hold the laned version to.
func naiveStats(t *table, name string) obs.TableStat {
	s := obs.TableStat{Name: name, Entries: len(t.ctr)}
	for _, c := range t.ctr {
		s.Counters[c&ctrMax]++
	}
	for _, tag := range t.tags {
		if tag != 0 {
			s.Occupied++
		}
	}
	s.Entropy = counterEntropy(s.Counters)
	if t.switches != nil {
		hist := make([]uint64, 33)
		top := 0
		for _, sw := range t.switches {
			b := bits.Len32(sw)
			hist[b]++
			top = max(top, b)
		}
		s.SharingHist = hist[:top+1]
	}
	return s
}

// trainedTable is an entries-sized counter table after a stream of reads
// and updates from mixed sites, with stats instrumentation on when stats is
// set.
func trainedTable(entries int, stats bool) *table {
	t := newTable(entries)
	if stats {
		t.enableStats()
	}
	rng := xrand.New(uint64(entries))
	for i := 0; i < 4*entries; i++ {
		pc := 0x1000 + uint64(rng.Intn(3*entries))*4
		idx := pc >> 2 * 0x9e3779b97f4a7c15 >> 40
		t.read(idx, pc)
		t.update(idx, rng.Bool(0.7))
	}
	return t
}

func TestTableStatsMatchesNaive(t *testing.T) {
	for _, entries := range []int{1, 2, 4, 8, 64, 1 << 12} {
		for _, stats := range []bool{false, true} {
			tab := trainedTable(entries, stats)
			if stats {
				// Counts beyond the stream's reach exercise the top buckets.
				tab.switches[0] = math.MaxUint32
			}
			if got, want := tab.stats("pht"), naiveStats(tab, "pht"); !reflect.DeepEqual(got, want) {
				t.Errorf("%d entries, stats %v: got %+v, want %+v", entries, stats, got, want)
			}
		}
	}
}

// BenchmarkTableStats snapshots a 32K-entry table, the size of a telemetry
// row's gshare table; stats is what every interval seal pays per table.
func BenchmarkTableStats(b *testing.B) {
	tab := trainedTable(1<<15, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tab.stats("pht")
	}
}

// introspectorExempt lists the registered schemes that intentionally do not
// implement Introspector: the contemporary extensions (their composite
// tables predate the introspection work) and the trivial static baselines,
// which have no tables at all. Every other registered Spec must introspect —
// a new predictor either joins telemetry or earns an explicit entry here.
var introspectorExempt = map[string]bool{
	"agree": true, "gskew": true, "yags": true, "local": true, "mcfarling": true,
	"taken": true, "nottaken": true,
}

func TestEveryRegisteredSpecIntrospects(t *testing.T) {
	for _, name := range Names() {
		p := MustNew(name)
		_, ok := p.(Introspector)
		if introspectorExempt[name] {
			if ok {
				t.Errorf("%s implements Introspector but is on the exemption list — remove it", name)
			}
			continue
		}
		if !ok {
			t.Errorf("%s does not implement Introspector and is not exempt", name)
		}
	}
}

// tagFree lists the registered schemes that read no table, so they neither
// detect collisions nor report entries. Every other registered scheme is a
// Collider and must report the entries behind its collisions — otherwise
// interference analysis would see no conflicts for it at all.
var tagFree = map[string]bool{"taken": true, "nottaken": true}

// TestEveryColliderReportsEntries: every registered Collider is an
// EntryReporter, and where it also introspects, each entry it reports names
// one of its sampled tables and lies inside it.
func TestEveryColliderReportsEntries(t *testing.T) {
	for _, name := range Names() {
		p := MustNew(name + ":1KB")
		_, col := p.(Collider)
		rep, ok := p.(EntryReporter)
		if tagFree[name] {
			if col || ok {
				t.Errorf("%s tracks collisions or reports entries but is listed as tag-free — remove it", name)
			}
			continue
		}
		if !col || !ok {
			t.Errorf("%s: Collider %v, EntryReporter %v; want both, or a tag-free listing", name, col, ok)
			continue
		}
		in, introspects := p.(Introspector)
		for i := uint64(0); i < 64; i++ {
			pc := 0x1000 + 4*i*i
			p.Predict(pc)
			entries := rep.LastEntries(pc, nil)
			if len(entries) == 0 {
				t.Fatalf("%s reports no entries for a prediction", name)
			}
			if introspects {
				tables := map[string]int{}
				for _, s := range in.Introspect() {
					tables[s.Name] = s.Entries
				}
				for _, e := range entries {
					if n, ok := tables[e.Table]; !ok || e.Index >= uint64(n) {
						t.Fatalf("%s: entry %+v outside its sampled tables %v", name, e, tables)
					}
				}
			}
			p.Update(pc, i%3 == 0)
		}
	}
}

func TestIntrospectSharingCountsSwitches(t *testing.T) {
	p := NewBimodal(16) // 64 entries — tiny, so two sites 64 entries apart alias
	p.EnableTableStats()
	a := uint64(0x1000)
	bpc := a + 64*4 // same index after pcIndex masking
	for i := 0; i < 10; i++ {
		p.Predict(a)
		p.Update(a, true)
		p.Predict(bpc)
		p.Update(bpc, false)
	}
	s := p.Introspect()[0]
	if len(s.SharingHist) < 2 {
		t.Fatalf("sharing histogram %v records no switched entries", s.SharingHist)
	}
	var switched uint64
	for _, b := range s.SharingHist[1:] {
		switched += b
	}
	if switched != 1 {
		t.Errorf("switched entries = %d, want exactly 1 (the shared slot)", switched)
	}
	// 19 ownership switches (every access after the first flips the owner)
	// land in bucket Len32(19)=5.
	if got := len(s.SharingHist) - 1; got != 5 {
		t.Errorf("top sharing bucket = %d, want 5 (19 switches)", got)
	}
}

func TestIntrospectWithoutStatsIsCold(t *testing.T) {
	// Introspect works without EnableTableStats, but occupancy and sharing
	// are unknown (no tags): Occupied 0, SharingHist nil.
	p := NewGShare(1 << 10)
	for i := 0; i < 1000; i++ {
		pc := 0x1000 + uint64(i%97)*4
		p.Predict(pc)
		p.Update(pc, true)
	}
	s := p.Introspect()[0]
	if s.Occupied != 0 {
		t.Errorf("occupied = %d without tags, want 0", s.Occupied)
	}
	if s.SharingHist != nil {
		t.Errorf("sharing hist = %v without switch counters, want nil", s.SharingHist)
	}
}

func TestCounterEntropy(t *testing.T) {
	if got := counterEntropy([4]uint64{8, 0, 0, 0}); got != 0 {
		t.Errorf("single-state entropy = %v, want 0", got)
	}
	if got := counterEntropy([4]uint64{2, 2, 2, 2}); math.Abs(got-2) > 1e-12 {
		t.Errorf("uniform entropy = %v, want 2", got)
	}
	if got := counterEntropy([4]uint64{}); got != 0 {
		t.Errorf("empty entropy = %v, want 0", got)
	}
}

func TestResetClearsStats(t *testing.T) {
	p := NewBimodal(64)
	p.EnableTableStats()
	for i := 0; i < 5000; i++ {
		pc := 0x1000 + uint64(i%701)*4
		p.Predict(pc)
		p.Update(pc, true)
	}
	p.Reset()
	s := p.Introspect()[0]
	if s.Occupied != 0 {
		t.Errorf("occupied after reset = %d, want 0", s.Occupied)
	}
	if len(s.SharingHist) != 1 || s.SharingHist[0] != uint64(s.Entries) {
		t.Errorf("sharing hist after reset = %v, want all entries in bucket 0", s.SharingHist)
	}
	if s.Counters[ctrInit] != uint64(s.Entries) {
		t.Errorf("counters after reset = %v, want all at init state", s.Counters)
	}
}
