package experiment

import (
	"context"
	"errors"
	"fmt"

	"branchsim/internal/workload"
)

// ArmError is the structured failure of one harness arm. A panicking
// predictor or workload, a workload error, or an expired per-arm deadline
// all surface as an ArmError carrying enough context to report the failure
// in a sweep summary without aborting the other arms.
type ArmError struct {
	// Key is the memoization key of the failed arm.
	Key string
	// Phase is the harness stage that failed: "profile", "hints" or "run".
	Phase string
	// Err is the underlying failure. For panics it is a
	// *workload.PanicError whose Stack names the faulty frame.
	Err error
}

// Error implements error.
func (e *ArmError) Error() string {
	return fmt.Sprintf("experiment: %s arm %s: %v", e.Phase, e.Key, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *ArmError) Unwrap() error { return e.Err }

// Stack returns the panic-site stack when the arm died of a panic, else nil.
func (e *ArmError) Stack() []byte {
	var pe *workload.PanicError
	if errors.As(e.Err, &pe) {
		return pe.Stack
	}
	return nil
}

// armError wraps err (not already an ArmError) with arm context. Sweep-level
// cancellation stays bare — an interrupted arm is not a failed arm — but a
// per-arm deadline expiry is wrapped, since naming the slow arm is the
// point.
func armError(phase, key string, err error) error {
	if err == nil || errors.Is(err, context.Canceled) {
		return err
	}
	var ae *ArmError
	if errors.As(err, &ae) {
		return err // keep the innermost arm context
	}
	return &ArmError{Key: key, Phase: phase, Err: err}
}
