package predictor

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"sort"
	"strings"
	"testing"
)

// pinnedDigests pins the seven kernel predictors' behaviour to recorded
// values: an FNV-64a digest of every event's correct/collided flags and of
// the full predictor state afterwards (counters, tags, switch counts, the
// history register, LastCollision, agree's bias bits), for each spec, table
// instrumentation mode and drive. The values were recorded before the
// predictors' scalar and block paths were rebuilt from shared step
// functions, so they are the oracle for the semantics those steps define;
// the kernel-vs-scalar differentials only check the block loop protocol.
var pinnedDigests = map[string]uint64{
	"bimodal:1KB/off/scalar":          0x821e86ba87b991c4,
	"bimodal:1KB/off/block":           0x969d94e8ff9871e3,
	"bimodal:1KB/collisions/scalar":   0xc03f26715a348563,
	"bimodal:1KB/collisions/block":    0xa744dcd0e2a206de,
	"bimodal:1KB/stats/scalar":        0xa35f98d901eeaa9f,
	"bimodal:1KB/stats/block":         0xfc24c5ee30b50dc2,
	"bimodal:64KB/off/scalar":         0x1f19f498dc230588,
	"bimodal:64KB/off/block":          0xb7a308baffbb891a,
	"bimodal:64KB/collisions/scalar":  0x8ae6634c0a1bf8c4,
	"bimodal:64KB/collisions/block":   0xbe3fd6c5cbe90204,
	"bimodal:64KB/stats/scalar":       0x1095854e9ead34ea,
	"bimodal:64KB/stats/block":        0x391ab3f5007a3e2a,
	"ghist:1KB/off/scalar":            0xcf9908af3f1ceb65,
	"ghist:1KB/off/block":             0x3b273d544eef94b8,
	"ghist:1KB/collisions/scalar":     0x7c525c673bc0eb2d,
	"ghist:1KB/collisions/block":      0xf1159d5d13f36404,
	"ghist:1KB/stats/scalar":          0xc568867be4158caa,
	"ghist:1KB/stats/block":           0xa17c3edb95980dec,
	"ghist:64KB/off/scalar":           0x07c9abd01e5b54f9,
	"ghist:64KB/off/block":            0xa5831797eda1ea94,
	"ghist:64KB/collisions/scalar":    0x3ee259f098b6dec2,
	"ghist:64KB/collisions/block":     0x2ab06e77da5dd556,
	"ghist:64KB/stats/scalar":         0x912aec3755106315,
	"ghist:64KB/stats/block":          0x66afd4de96da8d4f,
	"gshare:1KB/off/scalar":           0xb93dbc34431b5ac1,
	"gshare:1KB/off/block":            0x614fcef1ea76b820,
	"gshare:1KB/collisions/scalar":    0x891e542206823870,
	"gshare:1KB/collisions/block":     0xc3baa942dab854a7,
	"gshare:1KB/stats/scalar":         0xf1564f683b84f13c,
	"gshare:1KB/stats/block":          0x159a7bf7444a6b8d,
	"gshare:64KB/off/scalar":          0x0a06ed1c0c6878e8,
	"gshare:64KB/off/block":           0x47dcd1956e8132c9,
	"gshare:64KB/collisions/scalar":   0xf5ea395e601e83d6,
	"gshare:64KB/collisions/block":    0xf51ad7cc596f7a00,
	"gshare:64KB/stats/scalar":        0xd8ed01a587e3adc3,
	"gshare:64KB/stats/block":         0xcd79e3dde587318f,
	"agree:1KB/off/scalar":            0x9b7dd91b97574494,
	"agree:1KB/off/block":             0x4e340a95326f1064,
	"agree:1KB/collisions/scalar":     0x49516a609a772b75,
	"agree:1KB/collisions/block":      0x8c4390a69bf54d25,
	"agree:1KB/stats/scalar":          0x5751ebc52cba4981,
	"agree:1KB/stats/block":           0x10624e4d9affc5df,
	"agree:64KB/off/scalar":           0xe1b7b4141e5b51e9,
	"agree:64KB/off/block":            0x37dff2dce246d4a9,
	"agree:64KB/collisions/scalar":    0xd2aba35d42856107,
	"agree:64KB/collisions/block":     0x1fde1f5fc7b99862,
	"agree:64KB/stats/scalar":         0xcece3620560e024e,
	"agree:64KB/stats/block":          0xc40236add003d471,
	"bimode:1KB/off/scalar":           0x3ecdb55503723f7d,
	"bimode:1KB/off/block":            0xc96c928d3a91d344,
	"bimode:1KB/collisions/scalar":    0xf10ba41f9e00b3b5,
	"bimode:1KB/collisions/block":     0x899fb7c1f219c42e,
	"bimode:1KB/stats/scalar":         0x397f6c3a72cf8867,
	"bimode:1KB/stats/block":          0xad729749fa07e779,
	"bimode:64KB/off/scalar":          0x7b799ea8db82e58b,
	"bimode:64KB/off/block":           0x4bdb6e696c268232,
	"bimode:64KB/collisions/scalar":   0xbc33202eaccbe2ca,
	"bimode:64KB/collisions/block":    0x21a23b309fa24308,
	"bimode:64KB/stats/scalar":        0x72d1b8aba35cee0b,
	"bimode:64KB/stats/block":         0xb2f3e7f968410cb8,
	"gskew:1KB/off/scalar":            0x527c577fb7dff48e,
	"gskew:1KB/off/block":             0x931bc86f25cc5052,
	"gskew:1KB/collisions/scalar":     0x0f0855ed2195608f,
	"gskew:1KB/collisions/block":      0x4a37d99ef6e69b59,
	"gskew:1KB/stats/scalar":          0xb3bb1bbd985c8a78,
	"gskew:1KB/stats/block":           0x4210985ddc6ca5d9,
	"gskew:64KB/off/scalar":           0x57549f0eeda36935,
	"gskew:64KB/off/block":            0xe8218d7f8f33f8ba,
	"gskew:64KB/collisions/scalar":    0x0de3bd99a6bc6aa4,
	"gskew:64KB/collisions/block":     0xb014d1b50f3b6781,
	"gskew:64KB/stats/scalar":         0xb18b7b394e687286,
	"gskew:64KB/stats/block":          0x2ba5750f54f08080,
	"2bcgskew:1KB/off/scalar":         0x477a9d92ea13cb82,
	"2bcgskew:1KB/off/block":          0x9aa658799cabf010,
	"2bcgskew:1KB/collisions/scalar":  0x7fd381a9a0b4ac00,
	"2bcgskew:1KB/collisions/block":   0xbfed5fcf0905bd41,
	"2bcgskew:1KB/stats/scalar":       0xd282300d9fa94735,
	"2bcgskew:1KB/stats/block":        0x11ac374b8864f167,
	"2bcgskew:64KB/off/scalar":        0xdad5fcc049da0d74,
	"2bcgskew:64KB/off/block":         0xc9e290b9283fe3bc,
	"2bcgskew:64KB/collisions/scalar": 0x3b4ac5c63f505a44,
	"2bcgskew:64KB/collisions/block":  0x228a78575315a019,
	"2bcgskew:64KB/stats/scalar":      0x9dd6b78f262804c8,
	"2bcgskew:64KB/stats/block":       0x3f8f25079c2fbb8c,
}

// pinModes are the table instrumentation levels: no tags, collision tags,
// and tags plus per-entry ownership-switch counters (table stats).
var pinModes = []string{"off", "collisions", "stats"}

// pinRand is a SplitMix64 stream for block cuts and history interleaving.
type pinRand uint64

func (r *pinRand) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// pinTables lists p's counter tables and its history register.
func pinTables(t *testing.T, p Predictor) ([]*table, *ghr) {
	switch q := p.(type) {
	case *Bimodal:
		return []*table{q.t}, nil
	case *GHist:
		return []*table{q.t}, &q.hist
	case *GShare:
		return []*table{q.t}, &q.hist
	case *Agree:
		return []*table{q.t}, &q.hist
	case *BiMode:
		return []*table{q.choice, q.direction[0], q.direction[1]}, &q.hist
	case *GSkew:
		return q.banks[:], &q.hist
	case *TwoBcGskew:
		return []*table{q.bim, q.g0, q.g1, q.meta}, &q.hist
	}
	t.Fatalf("pinTables: unexpected predictor %T", p)
	return nil, nil
}

// newPinned builds spec with the given instrumentation mode.
func newPinned(t *testing.T, spec, mode string) Predictor {
	p := MustNew(spec)
	switch mode {
	case "collisions":
		p.(Collider).EnableCollisionTracking()
	case "stats":
		tables, _ := pinTables(t, p)
		for _, tb := range tables {
			tb.enableStats()
		}
	}
	return p
}

// hashState writes p's complete simulated state into h.
func hashState(t *testing.T, h hash.Hash64, p Predictor) {
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	tables, hist := pinTables(t, p)
	for _, tb := range tables {
		h.Write(tb.ctr)
		u64(uint64(len(tb.tags)))
		for _, tag := range tb.tags {
			u64(tag)
		}
		u64(uint64(len(tb.switches)))
		for _, sw := range tb.switches {
			u64(uint64(sw))
		}
	}
	if hist != nil {
		u64(hist.bits)
	}
	u64(b2u(p.(Collider).LastCollision()))
	if a, ok := p.(*Agree); ok {
		pcs := make([]uint64, 0, len(a.bias))
		for pc := range a.bias {
			pcs = append(pcs, pc)
		}
		sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
		for _, pc := range pcs {
			u64(pc)
			u64(b2u(a.bias[pc]))
		}
	}
}

// pinScalar drives p through Predict/Update, shifting a random outcome into
// the history of history predictors between some events, and digests the
// per-event flags and the final state.
func pinScalar(t *testing.T, p Predictor, pcs []uint64, taken []bool) uint64 {
	h := fnv.New64a()
	hs, _ := p.(HistoryShifter)
	col := p.(Collider)
	r := pinRand(3)
	for i, pc := range pcs {
		correct := p.Predict(pc) == taken[i]
		collided := col.LastCollision()
		p.Update(pc, taken[i])
		h.Write([]byte{byte(b2u(correct)), byte(b2u(collided))})
		if x := r.next(); hs != nil && x%8 == 0 {
			hs.ShiftHistory(x>>8&1 == 1)
		}
	}
	hashState(t, h, p)
	return h.Sum64()
}

// pinBlock drives p through RunBlock with random block cuts and digests the
// per-event flags, the block totals and the final state.
func pinBlock(t *testing.T, p Predictor, pcs []uint64, taken []bool) uint64 {
	h := fnv.New64a()
	bs, native := Batch(p)
	if !native {
		t.Fatalf("%s: no native kernel", p.Name())
	}
	correct := make([]bool, len(pcs))
	collided := make([]bool, len(pcs))
	var m BlockMetrics
	r := pinRand(5)
	for start := 0; start < len(pcs); {
		end := min(start+1+int(r.next()%300), len(pcs))
		m.Correct, m.Collided = correct[start:end], collided[start:end]
		bs.RunBlock(pcs[start:end], taken[start:end], &m)
		start = end
	}
	for i := range pcs {
		h.Write([]byte{byte(b2u(correct[i])), byte(b2u(collided[i]))})
	}
	for _, v := range []uint64{m.Mispredicts, m.Collisions, m.Constructive, m.Destructive, m.TakenCount} {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	hashState(t, h, p)
	return h.Sum64()
}

// TestPinnedPredictorState checks every kernel predictor, at the smallest and
// largest experiment table sizes, in every instrumentation mode, through
// both the scalar and the block protocol, against the recorded digests.
func TestPinnedPredictorState(t *testing.T) {
	pcs, taken := testStream(20_000, 2024)
	var bad []string
	for _, scheme := range []string{"bimodal", "ghist", "gshare", "agree", "bimode", "gskew", "2bcgskew"} {
		for _, size := range []string{"1KB", "64KB"} {
			spec := scheme + ":" + size
			for _, mode := range pinModes {
				for _, drive := range []string{"scalar", "block"} {
					key := spec + "/" + mode + "/" + drive
					p := newPinned(t, spec, mode)
					var got uint64
					if drive == "scalar" {
						got = pinScalar(t, p, pcs, taken)
					} else {
						got = pinBlock(t, p, pcs, taken)
					}
					if want, ok := pinnedDigests[key]; !ok || got != want {
						bad = append(bad, fmt.Sprintf("\t%q: %#016x,", key, got))
					}
				}
			}
		}
	}
	if len(bad) > 0 {
		t.Fatalf("%d digests differ from the recorded values; got:\n%s", len(bad), strings.Join(bad, "\n"))
	}
}
