package predictor

// Skewing functions from Seznec's skewed-associative work, used by the
// e-gskew and 2bcgskew predictors. The point of the family is that two
// (address, history) pairs that collide in one bank are guaranteed (with high
// probability) not to collide in the others, converting destructive aliasing
// into recoverable single-bank noise that the majority vote absorbs.
//
// H is a one-bit LFSR step on an n-bit value:
//
//	H(y)  rotates y right by one, feeding back y0 xor y(n-1) into the top bit
//	H⁻¹   is its exact inverse
//
// Both are bijections on n-bit values, so each skewing function below is a
// bijection of the 2n-bit input (v1, v2) onto n-bit indices per bank:
//
//	f0(v1,v2) = H(v1)   xor H⁻¹(v2) xor v2
//	f1(v1,v2) = H(v1)   xor H⁻¹(v2) xor v1
//	f2(v1,v2) = H⁻¹(v1) xor H(v2)  xor v2
//
// All of them are small enough to inline into the block kernels, which is
// why the shift amounts and mask are precomputed in skew.

// skew holds the constants of the skewing functions over n-bit indices,
// n ≥ 2: the skewed predictors' banks have at least 4 entries.
type skew struct {
	n, n1, n2 uint // n, n-1, n-2
	mask      uint64
}

func newSkew(n int) skew {
	return skew{n: uint(n), n1: uint(n - 1), n2: uint(n - 2), mask: histMask(n)}
}

// h computes H(y) for an n-bit y.
func (s skew) h(y uint64) uint64 { return y>>1 | (y^y>>s.n1)&1<<s.n1 }

// hinv computes H⁻¹(y) for an n-bit y.
func (s skew) hinv(y uint64) uint64 { return (y<<1 | (y>>s.n1^y>>s.n2)&1) & s.mask }

// inputs builds a skewed bank's (v1, v2) pair from the address index
// a = pcIndex(pc) and the global history hh cut to the bank's history
// length. The address contributes both halves so that zero-history
// configurations still separate branches; the history is folded into the
// low half, which is where the skewing functions diffuse bits fastest, and
// its bits beyond the index width fold into the high half so long histories
// still influence the index.
func (s skew) inputs(a, hh uint64) (v1, v2 uint64) {
	return (a>>s.n ^ hh>>s.n) & s.mask, (a ^ hh) & s.mask
}

func (s skew) f0(v1, v2 uint64) uint64 { return s.h(v1) ^ s.hinv(v2) ^ v2 }
func (s skew) f1(v1, v2 uint64) uint64 { return s.h(v1) ^ s.hinv(v2) ^ v1 }
func (s skew) f2(v1, v2 uint64) uint64 { return s.hinv(v1) ^ s.h(v2) ^ v2 }

// maj3 is the majority of three 0/1 votes.
func maj3(a, b, c uint64) uint64 { return a&b | b&c | a&c }

// partial is the skewed predictors' partial-update policy for one bank as a
// 0/1 enable: every bank trains on a misprediction (bad); on a correct
// prediction a bank that took part (part) re-enforces only if its own vote q
// matched the outcome o.
func partial(bad, part, q, o uint64) uint64 { return bad | part&^(q^o) }
