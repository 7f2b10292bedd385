package predictor

// The block protocol.
//
// The trace-driven protocol (Predict then Update, one interface call each,
// per dynamic branch) is what the replay hot path pays for every event of
// every arm. BatchSim is its block counterpart: RunBlock simulates a whole
// block of decoded (pc, taken) events in one call with no per-event
// dispatch. The seven table predictors implement it natively, each next to
// its Predict/Update and built from the same step functions — index hash,
// table read, vote, partial-update policy, counter step — so the semantics
// are written once and the kernel only hoists table and history state into
// locals for the duration of the block. Every other predictor runs blocks
// through scalarBlock, the scalar protocol in a loop.
//
// What is left to check is the loop protocol: cut into blocks at any
// offsets, a kernel must leave the predictor in exactly the state the
// scalar Predict/Update sequence would, and must score exactly the same
// per-event flags. The differentials in batch_test.go and internal/sim
// check that; TestPinnedPredictorState and perfbench's expected.jsonl pin
// the semantics themselves.

// BlockMetrics accumulates the outcome of one RunBlock call. The counters
// are raw: collision counts reflect the predictor's tag instrumentation
// whenever tags are enabled, and the caller applies its own tracking policy
// (sim.Runner only folds them into its metrics when collision tracking was
// requested), mirroring how the scalar path gates on Collider.LastCollision.
type BlockMetrics struct {
	Mispredicts  uint64
	Collisions   uint64
	Constructive uint64
	Destructive  uint64
	// TakenCount is the number of taken outcomes in the block. The kernels
	// compute it for free alongside scoring, sparing the caller a second
	// pass over the outcome array.
	TakenCount uint64

	// Correct and Collided, when non-nil with at least len(pcs) slots,
	// receive each event's prediction correctness and collision flag, for
	// callers that feed per-event consumers (telemetry, profiles) after the
	// block. Nil (the default) skips the per-event writes.
	Correct  []bool
	Collided []bool
}

// acc carries a block's scores in locals — registers, inside a kernel loop —
// and folds them into the BlockMetrics once per block. Writing through the
// out pointer per event costs the kernels ~15% (the stores serialize against
// the table loads); the accumulator keeps the loop body store-free except
// for the tables themselves and the optional per-event arrays.
type acc struct {
	misp, coll, constr, destr, tk uint64
	correct, collided             []bool
}

// init captures out's per-event arrays clipped to the block length n, so the
// kernels' a.correct[i] stores are provably in bounds (i ranges over n).
func (a *acc) init(out *BlockMetrics, n int) {
	if out.Correct != nil {
		a.correct = out.Correct[:n]
	}
	if out.Collided != nil {
		a.collided = out.Collided[:n]
	}
}

// add scores one event from 0/1 bits: o the outcome, bad a misprediction,
// col a collision.
func (a *acc) add(i int, o, bad, col uint64) {
	a.misp += bad
	a.coll += col
	a.constr += col &^ bad
	a.destr += col & bad
	a.tk += o
	if a.correct != nil {
		a.correct[i] = bad == 0
	}
	if a.collided != nil {
		a.collided[i] = col != 0
	}
}

func (a *acc) flush(out *BlockMetrics) {
	out.Mispredicts += a.misp
	out.Collisions += a.coll
	out.Constructive += a.constr
	out.Destructive += a.destr
	out.TakenCount += a.tk
}

// BatchSim simulates a whole block of dynamic branches in one call:
// pcs[i]/taken[i] is the i-th branch in program order, and out accumulates
// the block's scores. Semantically identical to calling Predict(pcs[i])
// then Update(pcs[i], taken[i]) per event on the same predictor.
type BatchSim interface {
	RunBlock(pcs []uint64, taken []bool, out *BlockMetrics)
}

// BatchProvider is implemented by wrappers that can sometimes expose a
// native kernel — e.g. a combined static+dynamic predictor whose hint
// database is empty delegates whole blocks to its dynamic component.
// Batched returns (kernel, true) when delegation is exact, (nil, false)
// when the wrapper must stay on the scalar path.
type BatchProvider interface {
	Batched() (BatchSim, bool)
}

// Batch returns a block simulator for p. When p provides a native
// devirtualized kernel (directly or through BatchProvider), native is true;
// otherwise the returned BatchSim is a generic scalar fallback that loops
// Predict/Update and native is false. Either way the result drives p's own
// state — interleaving RunBlock with scalar Predict/Update calls is legal.
func Batch(p Predictor) (bs BatchSim, native bool) {
	if bp, ok := p.(BatchProvider); ok {
		if k, ok := bp.Batched(); ok && k != nil {
			return k, true
		}
	} else if k, ok := p.(BatchSim); ok {
		return k, true
	}
	col, _ := p.(Collider)
	return &scalarBlock{p: p, col: col}, false
}

// scalarBlock is the generic fallback: the scalar protocol in block
// clothing, for predictors without a kernel (tage, perceptron, local, …).
type scalarBlock struct {
	p   Predictor
	col Collider // nil when p cannot track collisions
}

// RunBlock implements BatchSim.
func (s *scalarBlock) RunBlock(pcs []uint64, taken []bool, out *BlockMetrics) {
	taken = taken[:len(pcs)]
	var a acc
	a.init(out, len(pcs))
	for i, pc := range pcs {
		outcome := taken[i]
		bad := s.p.Predict(pc) != outcome
		collided := s.col != nil && s.col.LastCollision()
		s.p.Update(pc, outcome)
		a.add(i, b2u(outcome), b2u(bad), b2u(collided))
	}
	a.flush(out)
}
