// Package predictor implements the dynamic branch predictors studied in
// Patil & Emer (HPCA 2000), plus several related designs used as baselines
// and ablations.
//
// Core designs from the paper:
//
//   - bimodal   — PC-indexed table of 2-bit counters (Smith 1981)
//   - ghist     — GAg: global-history-indexed counters (Yeh & Patt)
//   - gshare    — PC xor global history (McFarling 1993)
//   - bimode    — choice bimodal + taken/not-taken gshare banks (Lee et al.)
//   - 2bcgskew  — bimodal + skewed e-gskew banks + gshare meta (Seznec &
//     Michaud), with the partial-update policy the paper describes
//
// Extensions (used by ablation experiments): agree (Sprangle et al.), gskew
// (plain e-gskew majority), yags, local (PAg), mcfarling (bimodal+gshare with
// a chooser), and the trivial static predictors taken/nottaken.
//
// All predictors follow the trace-driven protocol: for each dynamic branch
// the simulator calls Predict(pc) then Update(pc, taken), in program order.
// Predictors may carry lookup state between the two calls.
package predictor

// Predictor is a dynamic conditional branch predictor.
//
// The contract is strictly alternating: every Predict(pc) is followed by
// exactly one Update with the same pc before the next Predict. This matches
// an in-order, trace-driven pipeline with immediate (non-speculative) history
// update, the methodology the paper's Atom-based simulator used.
type Predictor interface {
	// Name returns the scheme name, e.g. "gshare".
	Name() string
	// SizeBits returns the predictor's architectural storage in bits
	// (counters and history; instrumentation tags excluded).
	SizeBits() int
	// Predict returns the predicted direction for the branch at pc.
	Predict(pc uint64) bool
	// Update trains the predictor with the resolved direction of the branch
	// whose Predict was just issued.
	Update(pc uint64, taken bool)
	// Reset restores the power-on state (counters weakly not-taken,
	// histories cleared) and clears collision instrumentation.
	Reset()
}

// HistoryShifter is implemented by predictors that keep a global history
// register. ShiftHistory inserts an outcome into that register without
// training any table.
//
// The paper found that when some branches are predicted statically it is
// sometimes crucial to keep shifting their outcomes into the history so the
// remaining dynamic branches retain their correlation context (contribution
// [1] in §1). The combined static+dynamic predictor uses this hook.
type HistoryShifter interface {
	ShiftHistory(taken bool)
}

// Collider is implemented by predictors that can detect aliasing. After
// EnableCollisionTracking, every Predict records whether any table entry it
// read was last touched by a different branch address; LastCollision reports
// that for the most recent Predict.
//
// This is exactly the paper's measurement: "a tag for each counter ... used
// to store the address of the last branch using that counter"; a lookup whose
// PC mismatches the tag is a collision. The simulator classifies it as
// constructive or destructive once the final prediction resolves.
type Collider interface {
	EnableCollisionTracking()
	LastCollision() bool
}

// Entry names one table entry a prediction read: the table (as Introspect
// names it, where the predictor introspects) and the masked index.
type Entry struct {
	Table string
	Index uint64
}

// EntryReporter is implemented by every Collider. LastEntries appends to dst
// the entries whose collision tags the most recent Predict(pc) installed, in
// read order — the reads behind LastCollision — and returns the extended
// slice. It is valid until Update and needs no collision tracking. It is a
// cold path, computed from the index state Predict leaves for Update, so
// interference analysis attributes pairs from the predictor's own index
// functions without a hook in any table read.
type EntryReporter interface {
	LastEntries(pc uint64, dst []Entry) []Entry
}

// pcIndex drops the byte-offset bits of a word-aligned branch address.
// Workload PCs are 4-byte aligned like Alpha instructions.
func pcIndex(pc uint64) uint64 { return pc >> 2 }

// log2 returns floor(log2(n)) for n >= 1.
func log2(n int) int {
	b := 0
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}

// entriesForBytes converts a storage budget in bytes into the largest
// power-of-two number of 2-bit counters that fits.
func entriesForBytes(bytes int) int {
	if bytes < 1 {
		bytes = 1
	}
	n := 1
	for n*2 <= bytes*4 { // counters are 2 bits: 4 per byte
		n *= 2
	}
	return n
}
