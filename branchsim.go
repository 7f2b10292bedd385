package branchsim

import (
	"branchsim/internal/core"
	"branchsim/internal/predictor"
	"branchsim/internal/profile"
	"branchsim/internal/sim"
	"branchsim/internal/trace"
	"branchsim/internal/workload"
)

// Re-exported core types. These are aliases, so values flow freely between
// the facade and the internal packages.
type (
	// Predictor is a dynamic branch predictor (Predict then Update per
	// branch, in program order).
	Predictor = predictor.Predictor
	// Collider is implemented by predictors that can count aliasing.
	Collider = predictor.Collider
	// HistoryShifter is implemented by predictors with a global history.
	HistoryShifter = predictor.HistoryShifter
	// Event is one dynamic conditional branch.
	Event = trace.Event
	// Recorder receives a dynamic branch stream.
	Recorder = trace.Recorder
	// Metrics is a simulation result (MISPs/KI, accuracy, collisions).
	Metrics = sim.Metrics
	// Collisions splits aliasing events into constructive/destructive.
	Collisions = sim.Collisions
	// ProfileDB is a per-branch profile database.
	ProfileDB = profile.DB
	// BranchStats is one branch's profiled behaviour.
	BranchStats = profile.BranchStats
	// HintDB is a set of static predictions produced by a Selector.
	HintDB = core.HintDB
	// Selector turns a profile into static hints.
	Selector = core.Selector
	// ShiftPolicy says what happens to the global history on statically
	// predicted branches.
	ShiftPolicy = core.ShiftPolicy
	// Combined is a static+dynamic predictor built by Combine.
	Combined = core.Combined
	// Divergence holds train-vs-ref behaviour drift (paper Table 5).
	Divergence = profile.Divergence
	// Program is an instrumented workload.
	Program = workload.Program
	// PanicError is a workload/predictor panic converted into an error;
	// runs never crash the caller.
	PanicError = workload.PanicError
)

// Selection schemes from the paper (and extensions).
type (
	// Static95 selects branches with bias above a cutoff (default 95%).
	Static95 = core.Static95
	// StaticAcc selects branches whose bias beats the profiled dynamic
	// predictor's per-branch accuracy.
	StaticAcc = core.StaticAcc
	// StaticFac is the Lindsay-style margin variant.
	StaticFac = core.StaticFac
	// StaticCol targets destructive-collision sites (paper future work).
	StaticCol = core.StaticCol
)

// Shift policies for Combine.
const (
	// NoShift drops statically predicted branches from the history
	// (the paper's default).
	NoShift = core.NoShift
	// ShiftOutcome shifts their resolved outcomes into the history
	// (the paper's "Shift" rows in Table 4).
	ShiftOutcome = core.ShiftOutcome
	// ShiftStatic shifts the static prediction instead (ablation).
	ShiftStatic = core.ShiftStatic
)

// Standard workload input names.
const (
	InputTest  = workload.InputTest
	InputTrain = workload.InputTrain
	InputRef   = workload.InputRef
)

// NewPredictor builds a dynamic predictor from a spec string such as
// "gshare:16KB", "2bcgskew:8KB" or "gshare:4KB:h=8". See
// internal/predictor.New for the accepted schemes.
func NewPredictor(spec string) (Predictor, error) { return predictor.New(spec) }

// PredictorNames lists the accepted scheme names.
func PredictorNames() []string { return predictor.Names() }

// Workloads lists the registered workload names.
func Workloads() []string { return workload.Names() }

// WorkloadByName returns a registered workload.
func WorkloadByName(name string) (Program, error) { return workload.Get(name) }

// Combine wraps a dynamic predictor with static hints under the given shift
// policy — the paper's combined scheme. hints may be nil for a transparent
// baseline wrapper. The wrapper takes a snapshot of the hints: hints set on
// the database afterwards do not reach it, and it never writes the
// database, so one database can be shared by many wrappers.
func Combine(dyn Predictor, hints *HintDB, shift ShiftPolicy) *Combined {
	return core.NewCombined(dyn, hints, shift)
}

// SelectHints runs a selection scheme over a profile database.
func SelectHints(sel Selector, db *ProfileDB) (*HintDB, error) { return sel.Select(db) }

// biasRecorder collects bias-only profiles without any predictor.
type biasRecorder struct {
	db     *profile.DB
	counts trace.Counts
}

func (r *biasRecorder) Branch(pc uint64, taken bool) {
	r.counts.Branch(pc, taken)
	r.db.Record(pc, taken)
}

func (r *biasRecorder) Ops(n uint64) { r.counts.Ops(n) }

// Diverge compares a train profile against a ref profile (paper Table 5).
func Diverge(train, ref *ProfileDB) Divergence { return profile.Diverge(train, ref) }

// NewProfileDB returns an empty profile database (for custom recorders).
func NewProfileDB(workloadName, input string) *ProfileDB {
	return profile.NewDB(workloadName, input)
}
