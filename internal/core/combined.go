package core

import (
	"fmt"

	"branchsim/internal/obs"
	"branchsim/internal/pcslot"
	"branchsim/internal/predictor"
)

// ShiftPolicy controls what a Combined predictor does to the dynamic
// predictor's global history register when a branch is predicted statically.
type ShiftPolicy int

const (
	// NoShift leaves the history untouched: statically predicted branches
	// vanish from the dynamic predictor entirely. This is the paper's
	// default configuration ("unless otherwise noted, we did not shift").
	NoShift ShiftPolicy = iota
	// ShiftOutcome shifts the branch's resolved direction into the history
	// register without training any table — the paper's "Shift" variants
	// in Table 4, selectable per application via an architectural flag.
	ShiftOutcome
	// ShiftStatic shifts the static prediction instead of the outcome. An
	// ablation point: it preserves history *length* alignment but feeds
	// the correlation mechanism a constant, showing why the paper shifts
	// real outcomes.
	ShiftStatic
)

// String implements fmt.Stringer.
func (s ShiftPolicy) String() string {
	switch s {
	case NoShift:
		return "noshift"
	case ShiftOutcome:
		return "shift"
	case ShiftStatic:
		return "shiftstatic"
	default:
		return fmt.Sprintf("ShiftPolicy(%d)", int(s))
	}
}

// CombinedStats counts how the static and dynamic components divided the
// work during a run.
type CombinedStats struct {
	StaticExecs   uint64 // dynamic executions predicted statically
	StaticMispred uint64 // of those, mispredicted
	DynamicExecs  uint64 // dynamic executions left to the dynamic predictor
}

// Combined implements the paper's static+dynamic scheme around any dynamic
// predictor. Branches present in the hint database take their fixed static
// prediction and never touch the dynamic predictor's tables; all other
// branches flow through unchanged. Depending on the ShiftPolicy, outcomes of
// hinted branches may still be shifted into the dynamic global history.
//
// Combined itself satisfies predictor.Predictor (and Collider /
// HistoryShifter when the wrapped predictor does), so it can be nested,
// swept and measured exactly like a bare dynamic predictor.
type Combined struct {
	dyn    predictor.Predictor
	scheme string    // the hints' selection scheme, "none" without hints
	tab    hintTable // hints compiled for lookup; never aliases the HintDB
	shift  ShiftPolicy
	stats  CombinedStats
	shiftr predictor.HistoryShifter      // nil if dyn keeps no global history
	ce     predictor.ConfidenceEstimator // nil if dyn cannot grade itself

	lastStatic bool
	lastTaken  bool
}

// NewCombined wraps dyn with the hint database and shift policy. A nil or
// empty hints database yields a transparent wrapper (pure dynamic
// behaviour), which the experiments use as their baseline arm. The hints
// are compiled into the wrapper's own lookup table here, once: hints set on
// the database afterwards do not reach it, and the wrapper never writes the
// database, which a sweep shares between arms.
func NewCombined(dyn predictor.Predictor, hints *HintDB, shift ShiftPolicy) *Combined {
	c := &Combined{dyn: dyn, scheme: "none", tab: compileHints(hints), shift: shift}
	if c.tab.idx.Len() > 0 {
		c.scheme = hints.Scheme
	}
	if hs, ok := dyn.(predictor.HistoryShifter); ok {
		c.shiftr = hs
	}
	if ce, ok := predictor.ConfidenceEstimatorOf(dyn); ok {
		c.ce = ce
	}
	return c
}

// hintTable is a HintDB compiled for lookup: a pcslot.Index over the hinted
// addresses and a one-byte code per slot, so a lookup is a multiply and two
// loads instead of a map probe.
type hintTable struct {
	idx pcslot.Index
	// codes[s+1] is slot s's code; codes[0] answers every miss with 0.
	codes []uint8
}

// hintStatic is the code bit of a hinted branch; bit 0 carries its static
// direction (1 = taken). An unhinted branch has code 0.
const hintStatic = 2

func compileHints(h *HintDB) hintTable {
	t := hintTable{codes: make([]uint8, 1, h.Len()+1)}
	if h == nil {
		return t
	}
	for _, hint := range h.Hints() {
		t.idx.Add(hint.PC)
		code := uint8(hintStatic)
		if hint.Taken {
			code |= 1
		}
		t.codes = append(t.codes, code)
	}
	return t
}

// code returns pc's hint code. It is the probe Predict and the block kernel
// inline for every branch.
func (t *hintTable) code(pc uint64) uint8 { return t.codes[t.idx.Slot(pc)+1] }

// Name implements predictor.Predictor. The scheme in it is the one the
// hints carried at construction, "none" when there were none.
func (c *Combined) Name() string {
	if c.shift == NoShift {
		return fmt.Sprintf("%s+%s", c.dyn.Name(), c.scheme)
	}
	return fmt.Sprintf("%s+%s(%s)", c.dyn.Name(), c.scheme, c.shift)
}

// SizeBits implements predictor.Predictor. Hint bits live in the
// instructions (as on IA-64), not in predictor storage, so only the dynamic
// component is charged.
func (c *Combined) SizeBits() int { return c.dyn.SizeBits() }

// Dynamic returns the wrapped dynamic predictor.
func (c *Combined) Dynamic() predictor.Predictor { return c.dyn }

// Stats returns the static/dynamic split observed so far.
func (c *Combined) Stats() CombinedStats { return c.stats }

// Predict implements predictor.Predictor.
func (c *Combined) Predict(pc uint64) bool {
	// The baseline arm, with no hints, skips the probe: telemetry samplers
	// keep it on this per-event path, where the probe measured ~7% of a
	// gshare branch's cost.
	if c.tab.idx.Len() > 0 {
		if h := c.tab.code(pc); h != 0 {
			t := h&1 != 0
			c.lastStatic = true
			c.lastTaken = t
			c.stats.StaticExecs++
			return t
		}
	}
	c.lastStatic = false
	c.stats.DynamicExecs++
	return c.dyn.Predict(pc)
}

// Update implements predictor.Predictor.
func (c *Combined) Update(pc uint64, outcome bool) {
	if c.lastStatic {
		if c.lastTaken != outcome {
			c.stats.StaticMispred++
		}
		if c.shiftr != nil {
			switch c.shift {
			case ShiftOutcome:
				c.shiftr.ShiftHistory(outcome)
			case ShiftStatic:
				c.shiftr.ShiftHistory(c.lastTaken)
			}
		}
		return
	}
	c.dyn.Update(pc, outcome)
}

// Reset implements predictor.Predictor. Hints persist (they are encoded in
// the binary); dynamic state and statistics clear.
func (c *Combined) Reset() {
	c.dyn.Reset()
	c.stats = CombinedStats{}
	c.lastStatic = false
}

// Batched implements predictor.BatchProvider. The wrapper has a block
// kernel whenever hinted branches leave the dynamic predictor entirely:
// under NoShift (the paper's default), with no hints installed, or around a
// dynamic predictor that keeps no global history to shift. The dynamic
// component then sees exactly the subsequence of unhinted branches, in
// order, so the kernel scores hinted branches itself and hands the rest to
// the dynamic component's own block simulator (predictor.Batch: its native
// kernel, or the scalar fallback) in one call per 256-branch span. ShiftOutcome and
// ShiftStatic with hints interleave history shifts with the dynamic
// component's events, which no dynamic kernel takes, so those stay scalar.
func (c *Combined) Batched() (predictor.BatchSim, bool) {
	hinted := c.tab.idx.Len() > 0
	if hinted && c.shift != NoShift && c.shiftr != nil {
		return nil, false
	}
	k, _ := predictor.Batch(c.dyn)
	if !hinted {
		return &combinedBatch{c: c, k: k}, true
	}
	return &filterBatch{c: c, k: k}, true
}

// combinedBatch forwards blocks to the dynamic component's kernel while
// keeping the wrapper's static/dynamic split statistics exact: with no
// hints, the scalar path counts every branch as a dynamic execution.
type combinedBatch struct {
	c *Combined
	k predictor.BatchSim
}

// RunBlock implements predictor.BatchSim.
func (b *combinedBatch) RunBlock(pcs []uint64, taken []bool, out *predictor.BlockMetrics) {
	b.c.stats.DynamicExecs += uint64(len(pcs))
	b.k.RunBlock(pcs, taken, out)
}

// filterBatch is the static filter's block kernel. It works through a
// block in spans of up to filterSpan events. A first pass looks up every
// branch's hint code; a second scores every hinted branch in place and
// compacts the others, with their positions, into scratch arrays; the
// dynamic kernel then runs over the compacted span in one call, and its
// per-event flags are scattered back to their positions when the caller
// asked for them. Hinted branches never collide: they index no table.
type filterBatch struct {
	c *Combined
	k predictor.BatchSim

	codes    [filterSpan]uint8
	pcs      [filterSpan]uint64
	taken    [filterSpan]bool
	pos      [filterSpan]int32
	correct  [filterSpan]bool
	collided [filterSpan]bool
}

// filterSpan bounds the events one pass of the filter handles, so its
// scratch arrays (~4KB) are allocated once per kernel, whatever the block
// length, and stay cache-resident between the passes. On the daemon
// workload, where every arm builds a kernel, 1024-event spans (16KB of
// scratch per arm) raised the peak heap by ~5MB more than these.
const filterSpan = 256

// RunBlock implements predictor.BatchSim.
func (b *filterBatch) RunBlock(pcs []uint64, taken []bool, out *predictor.BlockMetrics) {
	n := len(pcs)
	if n == 0 {
		return
	}
	taken = taken[:n]
	var correct, collided []bool
	if out.Correct != nil {
		correct = out.Correct[:n]
	}
	if out.Collided != nil {
		collided = out.Collided[:n]
	}
	for lo := 0; lo < n; lo += filterSpan {
		hi := min(lo+filterSpan, n)
		var cor, col []bool
		if correct != nil {
			cor = correct[lo:hi]
		}
		if collided != nil {
			col = collided[lo:hi]
		}
		b.span(pcs[lo:hi], taken[lo:hi], cor, col, out)
	}
	// Leave the wrapper as the scalar protocol would after the block's last
	// event, so LastCollision and LastConfidence answer for it.
	last := b.codes[(n-1)%filterSpan]
	b.c.lastStatic = last != 0
	b.c.lastTaken = last&1 != 0
}

// span runs the filter over at most filterSpan events, adding its scores
// to out and, when correct or collided is non-nil, each event's flags.
func (b *filterBatch) span(pcs []uint64, taken, correct, collided []bool, out *predictor.BlockMetrics) {
	n := len(pcs)
	taken = taken[:n]
	codes, dpcs, dtaken, dpos := b.codes[:n], b.pcs[:n], b.taken[:n], b.pos[:n]

	// The lookups get a pass of their own: the compaction cursor below
	// depends on every code before it, and a probe inside that loop would
	// chain each event's lookup latency onto the next.
	tab := &b.c.tab
	for i, pc := range pcs {
		codes[i] = tab.code(pc)
	}
	// Branch-free: every event is written to the compacted arrays, and m
	// advances past it only when unhinted. A hinted event's flags are final
	// here; an unhinted event's are overwritten by the scatter below.
	flags := correct != nil || collided != nil
	var m int
	var static, bad, tk uint64
	for i, h := range codes {
		o := pcslot.Bit(taken[i])
		st := uint64(h >> 1)
		miss := st & (uint64(h&1) ^ o)
		static += st
		bad += miss
		tk += st & o
		if flags {
			if correct != nil {
				correct[i] = miss == 0
			}
			if collided != nil {
				collided[i] = false
			}
			dpos[m] = int32(i)
		}
		dpcs[m], dtaken[m] = pcs[i], taken[i]
		m += int(st ^ 1)
	}

	var dm predictor.BlockMetrics
	if correct != nil {
		dm.Correct = b.correct[:m]
	}
	if collided != nil {
		dm.Collided = b.collided[:m]
	}
	if m > 0 {
		b.k.RunBlock(dpcs[:m], dtaken[:m], &dm)
	}
	if correct != nil {
		for j, ok := range dm.Correct {
			correct[dpos[j]] = ok
		}
	}
	if collided != nil {
		for j, col := range dm.Collided {
			collided[dpos[j]] = col
		}
	}

	out.Mispredicts += bad + dm.Mispredicts
	out.Collisions += dm.Collisions
	out.Constructive += dm.Constructive
	out.Destructive += dm.Destructive
	out.TakenCount += tk + dm.TakenCount

	c := b.c
	c.stats.StaticExecs += static
	c.stats.StaticMispred += bad
	c.stats.DynamicExecs += uint64(m)
}

// EnableCollisionTracking implements predictor.Collider if the dynamic
// component does; otherwise it is a no-op.
func (c *Combined) EnableCollisionTracking() {
	if col, ok := c.dyn.(predictor.Collider); ok {
		col.EnableCollisionTracking()
	}
}

// LastCollision implements predictor.Collider. A statically predicted
// branch cannot collide — it never indexes a table.
func (c *Combined) LastCollision() bool {
	if c.lastStatic {
		return false
	}
	if col, ok := c.dyn.(predictor.Collider); ok {
		return col.LastCollision()
	}
	return false
}

// ShiftHistory implements predictor.HistoryShifter when the dynamic
// component keeps a global history.
func (c *Combined) ShiftHistory(outcome bool) {
	if c.shiftr != nil {
		c.shiftr.ShiftHistory(outcome)
	}
}

// EnableTableStats implements predictor.Introspector if the dynamic
// component does; otherwise it is a no-op. Static hints keep no tables, so
// introspection passes straight through.
func (c *Combined) EnableTableStats() {
	if in, ok := c.dyn.(predictor.Introspector); ok {
		in.EnableTableStats()
	}
}

// Introspect implements predictor.Introspector, returning the dynamic
// component's table snapshots. A dynamic component with no tables yields an
// empty, non-nil slice, so its journal samples read "tables":[].
func (c *Combined) Introspect() []obs.TableStat {
	if in, ok := c.dyn.(predictor.Introspector); ok {
		return in.Introspect()
	}
	return []obs.TableStat{}
}

// IntrospectTagged implements predictor.TaggedIntrospector, returning the
// dynamic component's tagged banks (nil when it has none). Hints keep no
// banks, so the wrapper adds nothing.
func (c *Combined) IntrospectTagged() []obs.TaggedBankStat {
	if tin, ok := c.dyn.(predictor.TaggedIntrospector); ok {
		return tin.IntrospectTagged()
	}
	return nil
}

// ConfidenceSource implements predictor.ConfidenceProvider: the wrapper
// grades its predictions exactly when the dynamic component can grade
// itself.
func (c *Combined) ConfidenceSource() (predictor.ConfidenceEstimator, bool) {
	if c.ce == nil {
		return nil, false
	}
	return c, true
}

// LastConfidence implements predictor.ConfidenceEstimator. A statically
// predicted branch carries full confidence — the hint is fixed, the paper's
// filter has already vouched for it — while dynamic branches report the
// component's own estimate. Meaningful only when ConfidenceSource returns
// true.
func (c *Combined) LastConfidence() predictor.Confidence {
	if c.lastStatic || c.ce == nil {
		return predictor.Confidence{Score: 1}
	}
	return c.ce.LastConfidence()
}
