package predictor

import (
	"testing"
	"testing/quick"
)

// Reference definitions of the skewing functions, one per symbol, with the
// masking and degenerate widths handled inside. They are the oracle the
// production skew methods — precomputed constants, inlinable — must equal.

// hFunc computes H(y) over n-bit values. For n < 2 it degenerates to the
// identity (a 1-bit value has no distinct rotation).
func hFunc(y uint64, n int) uint64 {
	mask := (uint64(1) << n) - 1
	y &= mask
	if n < 2 {
		return y
	}
	fb := (y ^ (y >> (n - 1))) & 1
	return ((y >> 1) | (fb << (n - 1))) & mask
}

// hInv computes H⁻¹(y) over n-bit values.
func hInv(y uint64, n int) uint64 {
	mask := (uint64(1) << n) - 1
	y &= mask
	if n < 2 {
		return y
	}
	top := (y >> (n - 1)) & 1
	next := (y >> (n - 2)) & 1
	b0 := top ^ next
	return ((y << 1) | b0) & mask
}

// skewIndex computes the bank-th skewing function over the 2n-bit input
// split into high part v1 and low part v2.
func skewIndex(bank int, v1, v2 uint64, n int) uint64 {
	mask := (uint64(1) << n) - 1
	v1 &= mask
	v2 &= mask
	switch bank {
	case 0:
		return hFunc(v1, n) ^ hInv(v2, n) ^ v2
	case 1:
		return hFunc(v1, n) ^ hInv(v2, n) ^ v1
	default:
		return hInv(v1, n) ^ hFunc(v2, n) ^ v2
	}
}

// bankInput builds the (v1, v2) pair for a skewed bank from the branch
// address and hlen bits of global history.
func bankInput(pc uint64, hist uint64, hlen, n int) (v1, v2 uint64) {
	a := pcIndex(pc)
	mask := (uint64(1) << n) - 1
	h := hist
	if hlen < 64 {
		h &= (uint64(1) << hlen) - 1
	}
	v1 = (a >> n) & mask
	v2 = (a ^ h) & mask
	if hlen > n {
		v1 ^= (h >> n) & mask
	}
	return v1, v2
}

// skewValues yields edge values (zero, all-ones, single bits at both ends
// and the middle, alternating patterns) followed by n random ones.
func skewValues(n int) []uint64 {
	vals := []uint64{0, ^uint64(0), 1, 1 << 63, 1 << 31, 0x5555_5555_5555_5555, 0xaaaa_aaaa_aaaa_aaaa}
	r := pinRand(uint64(n))
	for i := 0; i < n; i++ {
		vals = append(vals, r.next())
	}
	return vals
}

// TestSkewMatchesOracle holds the production skew methods to the oracle
// definitions above for every index width in 2..20, for history lengths
// narrower than, equal to and wider than the index, over edge and random
// values.
func TestSkewMatchesOracle(t *testing.T) {
	vals := skewValues(200)
	for n := 2; n <= 20; n++ {
		s := newSkew(n)
		for _, y := range vals {
			yn := y & s.mask
			if got, want := s.h(yn), hFunc(y, n); got != want {
				t.Fatalf("n=%d: h(%#x) = %#x, oracle %#x", n, yn, got, want)
			}
			if got, want := s.hinv(yn), hInv(y, n); got != want {
				t.Fatalf("n=%d: hinv(%#x) = %#x, oracle %#x", n, yn, got, want)
			}
		}
		for i, x := range vals {
			v1, v2 := x&s.mask, vals[(i+1)%len(vals)]&s.mask
			for bank, f := range []func(uint64, uint64) uint64{s.f0, s.f1, s.f2} {
				if got, want := f(v1, v2), skewIndex(bank, v1, v2, n); got != want {
					t.Fatalf("n=%d: f%d(%#x, %#x) = %#x, oracle %#x", n, bank, v1, v2, got, want)
				}
			}
		}
		for _, hlen := range []int{0, 1, 2, n - 1, n, n + 1, 2 * n, 63, 64} {
			for i, pc := range vals {
				hist := vals[(i+3)%len(vals)]
				v1, v2 := s.inputs(pcIndex(pc), hist&histMask(hlen))
				w1, w2 := bankInput(pc, hist, hlen, n)
				if v1 != w1 || v2 != w2 {
					t.Fatalf("n=%d hlen=%d: inputs(%#x, %#x) = (%#x, %#x), oracle (%#x, %#x)", n, hlen, pc, hist, v1, v2, w1, w2)
				}
			}
		}
	}
}

func TestHFuncInverse(t *testing.T) {
	for n := 2; n <= 16; n++ {
		s := newSkew(n)
		for y := uint64(0); y <= s.mask && y < 4096; y++ {
			if got := s.hinv(s.h(y)); got != y {
				t.Fatalf("n=%d: hinv(h(%#x)) = %#x", n, y, got)
			}
			if got := s.h(s.hinv(y)); got != y {
				t.Fatalf("n=%d: h(hinv(%#x)) = %#x", n, y, got)
			}
		}
	}
}

func TestHFuncInverseProperty(t *testing.T) {
	f := func(y uint64, nRaw uint8) bool {
		s := newSkew(2 + int(nRaw%19)) // 2..20
		y &= s.mask
		return s.hinv(s.h(y)) == y
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestHFuncIsPermutation(t *testing.T) {
	const n = 10
	s := newSkew(n)
	seen := make([]bool, 1<<n)
	for y := uint64(0); y < 1<<n; y++ {
		v := s.h(y)
		if seen[v] {
			t.Fatalf("h not injective at %#x", y)
		}
		seen[v] = true
	}
}

// The oracle keeps the 1-bit degenerate case; production skews never see it
// (skewed banks have at least 4 entries).
func TestHFuncDegenerateWidth(t *testing.T) {
	for _, y := range []uint64{0, 1} {
		if hFunc(y, 1) != y || hInv(y, 1) != y {
			t.Fatalf("1-bit H must be identity")
		}
	}
}

// Each skewing function over a full (v1, v2) square must hit every index
// equally often: it is a balanced map from 2n bits onto n bits.
func TestSkewIndexBalanced(t *testing.T) {
	const n = 6
	s := newSkew(n)
	for bank, f := range []func(uint64, uint64) uint64{s.f0, s.f1, s.f2} {
		counts := make([]int, 1<<n)
		for v1 := uint64(0); v1 < 1<<n; v1++ {
			for v2 := uint64(0); v2 < 1<<n; v2++ {
				counts[f(v1, v2)]++
			}
		}
		for idx, c := range counts {
			if c != 1<<n {
				t.Fatalf("bank %d: index %d hit %d times, want %d", bank, idx, c, 1<<n)
			}
		}
	}
}

// Pairs that collide in one bank should (almost) never collide in all
// banks — the de-aliasing property the skewing family exists for.
func TestSkewIndexDecorrelatesBanks(t *testing.T) {
	const n = 8
	s := newSkew(n)
	type pair struct{ v1, v2 uint64 }
	// group inputs by bank-0 index, then check bank-1 spreads each group
	groups := map[uint64][]pair{}
	for v1 := uint64(0); v1 < 64; v1++ {
		for v2 := uint64(0); v2 < 64; v2++ {
			idx := s.f0(v1, v2)
			groups[idx] = append(groups[idx], pair{v1, v2})
		}
	}
	bothCollide := 0
	total := 0
	for _, g := range groups {
		for i := 1; i < len(g); i++ {
			total++
			if s.f1(g[0].v1, g[0].v2) == s.f1(g[i].v1, g[i].v2) {
				bothCollide++
			}
		}
	}
	if total == 0 {
		t.Skip("no bank-0 collisions in sample")
	}
	if frac := float64(bothCollide) / float64(total); frac > 0.05 {
		t.Fatalf("%.1f%% of bank-0-colliding pairs also collide in bank 1", 100*frac)
	}
}

func TestBankInputDeterministic(t *testing.T) {
	s := newSkew(10)
	a := pcIndex(0x1234_5678)
	v1a, v2a := s.inputs(a, 0xabcd&histMask(12))
	v1b, v2b := s.inputs(a, 0xabcd&histMask(12))
	if v1a != v1b || v2a != v2b {
		t.Fatalf("inputs not deterministic")
	}
	if v1a&^s.mask != 0 || v2a&^s.mask != 0 {
		t.Fatalf("inputs exceeded index width")
	}
	// history must influence the input
	_, v2c := s.inputs(a, 0xabce&histMask(12))
	if v2c == v2a {
		t.Fatalf("history change did not alter bank input")
	}
}
