package faults

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"branchsim/internal/predictor"
	"branchsim/internal/profile"
	"branchsim/internal/sim"
	"branchsim/internal/trace"
	"branchsim/internal/workload"
)

func TestPlanSchedule(t *testing.T) {
	p := NewPlan(
		Fault{At: 3, Kind: KindCorrupt},
		Fault{At: 5, Every: 10, Kind: KindCorrupt},
	)
	var fires []uint64
	for i := uint64(1); i <= 30; i++ {
		if p.tick() != nil {
			fires = append(fires, i)
		}
	}
	want := []uint64{3, 5, 15, 25}
	if len(fires) != len(want) {
		t.Fatalf("fired at %v, want %v", fires, want)
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("fired at %v, want %v", fires, want)
		}
	}
	if p.Fired() != 4 || p.Ops() != 30 {
		t.Fatalf("Fired=%d Ops=%d", p.Fired(), p.Ops())
	}
}

func TestPredictorPanicsOnSchedule(t *testing.T) {
	inner, err := predictor.New("bimodal:1KB")
	if err != nil {
		t.Fatal(err)
	}
	fp := &Predictor{Inner: inner, Plan: NewPlan(Fault{At: 4, Kind: KindPanic, Msg: "injected"})}
	for i := 0; i < 3; i++ {
		fp.Predict(0x40)
		fp.Update(0x40, true)
	}
	defer func() {
		r := recover()
		if r != "injected" {
			t.Fatalf("recovered %v", r)
		}
	}()
	fp.Predict(0x40)
	t.Fatal("no panic on the 4th predict")
}

func TestProgramPanicIsIsolatedByRunProgram(t *testing.T) {
	inner, err := workload.Get("compress")
	if err != nil {
		t.Fatal(err)
	}
	prog := &Program{Inner: inner, Plan: NewPlan(Fault{At: 100, Kind: KindPanic, Msg: "boom"})}
	err = workload.RunProgram(context.Background(), prog, workload.InputTest, trace.Discard)
	var pe *workload.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Value != "boom" || len(pe.Stack) == 0 {
		t.Fatalf("panic value %v, stack %d bytes", pe.Value, len(pe.Stack))
	}
}

func TestProgramErrorInjection(t *testing.T) {
	inner, err := workload.Get("compress")
	if err != nil {
		t.Fatal(err)
	}
	injected := errors.New("injected io")
	prog := &Program{Inner: inner, Plan: NewPlan(Fault{At: 50, Kind: KindError, Err: injected})}
	err = workload.RunProgram(context.Background(), prog, workload.InputTest, trace.Discard)
	if !errors.Is(err, injected) {
		t.Fatalf("err = %v, want injected error", err)
	}
}

func TestProgramCorruptionChangesStream(t *testing.T) {
	inner, err := workload.Get("compress")
	if err != nil {
		t.Fatal(err)
	}
	run := func(p workload.Program) trace.Counts {
		var c trace.Counts
		if err := workload.RunProgram(context.Background(), p, workload.InputTest, &c); err != nil {
			t.Fatal(err)
		}
		return c
	}
	clean := run(inner)
	// Flip every 100th outcome; the taken count must move, everything
	// else must not.
	corrupt := run(&Program{Inner: inner, Plan: NewPlan(Fault{At: 1, Every: 100, Kind: KindCorrupt})})
	if corrupt.Branches != clean.Branches || corrupt.Instructions != clean.Instructions {
		t.Fatalf("corruption changed stream shape: %+v vs %+v", corrupt, clean)
	}
	if corrupt.TakenCount == clean.TakenCount {
		t.Fatalf("corruption had no effect on outcomes")
	}
}

func TestFaultyPredictorInsideRunner(t *testing.T) {
	// The full arm path: faulty predictor inside a sim.Runner inside a
	// workload run. RunProgram must turn the panic into an error.
	inner, err := predictor.New("gshare:1KB")
	if err != nil {
		t.Fatal(err)
	}
	fp := &Predictor{Inner: inner, Plan: NewPlan(Fault{At: 1000, Kind: KindPanic, Msg: "table corrupted"})}
	prog, err := workload.Get("compress")
	if err != nil {
		t.Fatal(err)
	}
	r := sim.NewRunner(fp)
	err = workload.RunProgram(context.Background(), prog, workload.InputTest, r)
	var pe *workload.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if !strings.Contains(string(pe.Stack), "Predict") {
		t.Fatalf("stack does not name the predictor frame:\n%s", pe.Stack)
	}
}

func TestWriterFaults(t *testing.T) {
	var buf bytes.Buffer
	ioErr := errors.New("disk full")
	w := &Writer{W: &buf, Plan: NewPlan(
		Fault{At: 2, Kind: KindError, Err: ioErr},
		Fault{At: 3, Kind: KindCorrupt},
	)}
	if _, err := w.Write([]byte("aa")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("bb")); !errors.Is(err, ioErr) {
		t.Fatalf("write 2 err = %v", err)
	}
	if _, err := w.Write([]byte("cc")); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "aa"+string([]byte{'c' ^ 0xff})+"c" {
		t.Fatalf("buffer = %q", got)
	}
}

func TestWriterCorruptionBreaksProfileRoundTrip(t *testing.T) {
	// A corrupted byte in a saved profile must surface as a Load error,
	// never a panic — the contract the atomic SaveFile + strict Load pair
	// relies on.
	db := profile.NewDB("compress", "test")
	for i := 0; i < 8; i++ {
		db.Record(uint64(0x40+4*i), i%2 == 0)
	}
	var clean bytes.Buffer
	if err := db.Save(&clean); err != nil {
		t.Fatal(err)
	}
	var dirty bytes.Buffer
	w := &Writer{W: &dirty, Plan: NewPlan(Fault{At: 1, Kind: KindCorrupt})}
	if err := db.Save(w); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(clean.Bytes(), dirty.Bytes()) {
		t.Fatal("corruption had no effect")
	}
}
