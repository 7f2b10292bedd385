// Package faults provides deterministic fault injection for testing the
// resilience of the experiment pipeline. It wraps the three surfaces a sweep
// touches — predictors, workload programs and output writers — with
// implementations that panic, error, stall or corrupt data at scheduled
// operation counts.
//
// Schedules are counted, not timed, so an injected fault lands on exactly
// the same dynamic event in every run: tests of panic isolation, timeout
// attribution and checkpoint resume stay reproducible under -race and on
// slow CI machines.
package faults

import (
	"fmt"
	"sync"
	"time"

	"branchsim/internal/obs"
)

// Kind is the effect of one scheduled fault.
type Kind int

const (
	// KindPanic panics with the fault's message, as a corrupted or buggy
	// component would.
	KindPanic Kind = iota
	// KindError reports the fault's Err through the wrapper's error path
	// (returned by Program.Run, returned from Writer.Write).
	KindError
	// KindDelay sleeps for the fault's Delay, modelling a stall.
	KindDelay
	// KindCorrupt silently corrupts data: a Program flips the branch
	// outcome, a Writer flips the first byte of the write.
	KindCorrupt
	// KindShortWrite persists only a prefix of a write and reports
	// io.ErrShortWrite — a torn write whose caller gets told (FS only).
	KindShortWrite
	// KindENOSPC fails the operation with syscall.ENOSPC, the disk-full
	// model for graceful-degradation tests (FS only).
	KindENOSPC
	// KindCrash persists a torn prefix of the in-flight write and then
	// freezes the filesystem: every later operation returns ErrCrashed,
	// modelling the process dying at that write boundary (FS only).
	KindCrash
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindPanic:
		return "panic"
	case KindError:
		return "error"
	case KindDelay:
		return "delay"
	case KindCorrupt:
		return "corrupt"
	case KindShortWrite:
		return "short-write"
	case KindENOSPC:
		return "enospc"
	case KindCrash:
		return "crash"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Fault is one scheduled injection.
type Fault struct {
	// At is the 1-based operation count the fault first fires on. The
	// "operation" is the wrapper's unit: a Predict call, a dynamic branch
	// event, a Write call.
	At uint64
	// Every, when non-zero, repeats the fault at At, At+Every, At+2·Every…
	Every uint64
	// Kind selects the effect.
	Kind Kind
	// Msg is the panic value for KindPanic.
	Msg string
	// Err is the error for KindError.
	Err error
	// Delay is the stall for KindDelay.
	Delay time.Duration
}

// matches reports whether the fault fires on operation n.
func (f Fault) matches(n uint64) bool {
	if n == f.At {
		return true
	}
	return f.Every != 0 && n > f.At && (n-f.At)%f.Every == 0
}

// Plan is a deterministic fault schedule shared by one wrapper. It is safe
// for concurrent use; the operation counter is global across goroutines.
type Plan struct {
	mu      sync.Mutex
	n       uint64
	faults  []Fault
	fired   uint64
	counter *obs.Counter
}

// NewPlan returns a plan firing the given faults.
func NewPlan(faults ...Fault) *Plan {
	return &Plan{faults: faults}
}

// SetObserver publishes every fired injection to o's registry under
// obs.MFaultsInjected, so fault-test sweeps can see injections alongside
// the arm spans they perturb. A nil observer leaves the plan unobserved.
func (p *Plan) SetObserver(o *obs.Observer) {
	p.mu.Lock()
	p.counter = o.Counter(obs.MFaultsInjected)
	p.mu.Unlock()
}

// Fired reports how many faults have fired so far.
func (p *Plan) Fired() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fired
}

// Ops reports how many operations the plan has counted.
func (p *Plan) Ops() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.n
}

// tick counts one operation and returns the fault scheduled for it, if any.
func (p *Plan) tick() *Fault {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.n++
	for i := range p.faults {
		if p.faults[i].matches(p.n) {
			p.fired++
			p.counter.Add(1)
			return &p.faults[i]
		}
	}
	return nil
}
