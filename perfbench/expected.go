package main

import (
	"bufio"
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"branchsim/internal/experiment"
	"branchsim/internal/sim"
	"branchsim/serveapi"
)

// expectedJSONL holds the offline metrics of every arm in universe(), one
// {"key","metrics"} object per line. Regenerate it with
//
//	go run . -write-expected expected.jsonl
//
// only when the simulator's results are meant to change.
//
//go:embed expected.jsonl
var expectedJSONL []byte

// expected maps an arm key to the metrics an offline run produced.
type expected map[string]sim.Metrics

type expectedLine struct {
	Key     string      `json:"key"`
	Metrics sim.Metrics `json:"metrics"`
}

func loadExpected() (expected, error) { return parseExpected(expectedJSONL) }

func parseExpected(data []byte) (expected, error) {
	exp := expected{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for n := 1; sc.Scan(); n++ {
		var l expectedLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("expected.jsonl line %d: %w", n, err)
		}
		exp[l.Key] = l.Metrics
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("expected.jsonl: %w", err)
	}
	for _, a := range universe() {
		if _, ok := exp[a.key()]; !ok {
			return nil, fmt.Errorf("expected.jsonl: no entry for arm %s", a.key())
		}
	}
	return exp, nil
}

// check compares an arm's metrics with the expected ones, every field
// including the constructive/destructive collision split. For an unstable
// workload it compares the labels and the stream's counts only; the oracle
// checks the rest (see unstable). It returns "" on a match and a
// description of the difference otherwise.
func (e expected) check(a arm, got sim.Metrics) string {
	want, ok := e[a.key()]
	if !ok {
		return a.key() + ": no expected metrics"
	}
	if unstable[a.Workload] {
		want.Mispredicts, want.Collisions = got.Mispredicts, got.Collisions
	}
	if d := want.Diff(got); d != "" {
		return a.key() + ": " + d
	}
	return ""
}

// fromWire is a daemon result as sim.Metrics, with the labels of a's
// expected offline result, since the wire carries none.
func (e expected) fromWire(a arm, got *serveapi.Metrics) sim.Metrics {
	m := e[a.key()]
	m.Instructions, m.Branches, m.TakenCount, m.Mispredicts = got.Instructions, got.Branches, got.Taken, got.Mispredicts
	m.CollisionsTracked = got.CollisionsTracked
	m.Collisions = sim.Collisions{Total: got.Collisions, Constructive: got.Constructive, Destructive: got.Destructive}
	return m
}

// checkWire compares a daemon result with the expected offline metrics, so
// a daemon result must be bit-identical to an offline run of the same arm.
func (e expected) checkWire(a arm, got *serveapi.Metrics) string {
	if got == nil {
		return a.key() + ": no metrics"
	}
	return e.check(a, e.fromWire(a, got))
}

// writeExpected recomputes every arm of universe() and writes the expected
// file. It uses a harness without a replay engine, so each arm executes its
// workload directly and runs the scalar per-branch path: an oracle that
// shares neither the capture/replay engine nor the batch kernels with the
// workloads it checks.
func writeExpected(path string, log io.Writer) error {
	arms := universe()
	h := experiment.NewHarness()
	defer h.Close()
	out := make([]expectedLine, len(arms))
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for w := 0; w < armWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(arms) {
					return
				}
				m, err := h.Run(context.Background(), harnessArm(arms[i]))
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				out[i] = expectedLine{Key: arms[i].key(), Metrics: m}
				if i%100 == 0 {
					fmt.Fprintf(log, "expected: %d/%d arms\n", i, len(arms))
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	var buf bytes.Buffer
	for _, l := range out {
		data, err := json.Marshal(l)
		if err != nil {
			return err
		}
		buf.Write(data)
		buf.WriteByte('\n')
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

func harnessArm(a arm) experiment.Arm {
	return experiment.Arm{Workload: a.Workload, Input: input, Pred: a.Pred, Scheme: a.Scheme}
}
