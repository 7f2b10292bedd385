package experiment

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestFlightComputesOnce(t *testing.T) {
	var f flight[int]
	var calls atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := f.do(context.Background(), "k", func() (int, error) {
				calls.Add(1)
				return 7, nil
			})
			if err != nil || v != 7 {
				t.Errorf("do = %d, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("fn ran %d times", calls.Load())
	}
	if f.size() != 1 {
		t.Fatalf("size = %d", f.size())
	}
}

func TestFlightDoesNotCacheErrors(t *testing.T) {
	var f flight[int]
	sentinel := errors.New("boom")
	calls := 0
	for i := 0; i < 3; i++ {
		_, err := f.do(context.Background(), "k", func() (int, error) {
			calls++
			return 0, sentinel
		})
		if err != sentinel {
			t.Fatalf("err = %v", err)
		}
	}
	if calls != 3 {
		t.Fatalf("failed computation was memoized: %d calls for 3 do()s", calls)
	}
	if f.size() != 0 {
		t.Fatalf("failed key still cached: size = %d", f.size())
	}
	// After the failures, a success is cached as usual.
	v, err := f.do(context.Background(), "k", func() (int, error) { return 9, nil })
	if err != nil || v != 9 {
		t.Fatalf("recovery do = %d, %v", v, err)
	}
	if f.size() != 1 {
		t.Fatalf("successful retry not cached")
	}
}

func TestFlightSharesInFlightError(t *testing.T) {
	// Callers concurrent with a failing execution share its error (their
	// arms depend on that execution), but the key is released for later
	// retries.
	var f flight[int]
	var calls atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	sentinel := errors.New("boom")

	go f.do(context.Background(), "k", func() (int, error) {
		calls.Add(1)
		close(started)
		<-release
		return 0, sentinel
	})
	<-started

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := f.do(context.Background(), "k", func() (int, error) {
				calls.Add(1)
				return 0, sentinel
			}); err != sentinel {
				t.Errorf("waiter err = %v", err)
			}
		}()
	}
	time.Sleep(10 * time.Millisecond) // let the waiters block on the leader
	close(release)
	wg.Wait()
	if got := calls.Load(); got < 1 || got > 9 {
		t.Fatalf("calls = %d", got)
	}
}

func TestFlightWaiterHonorsContext(t *testing.T) {
	var f flight[int]
	started := make(chan struct{})
	release := make(chan struct{})
	go f.do(context.Background(), "k", func() (int, error) {
		close(started)
		<-release
		return 1, nil
	})
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := f.do(ctx, "k", func() (int, error) { return 2, nil })
		if !errors.Is(err, context.Canceled) {
			t.Errorf("abandoning waiter err = %v", err)
		}
	}()
	cancel()
	wg.Wait()
	close(release)

	// The leader's result was not disturbed by the abandoned waiter.
	v, err := f.do(context.Background(), "k", func() (int, error) { return 3, nil })
	if err != nil || v != 1 {
		t.Fatalf("after abandon: do = %d, %v", v, err)
	}
}

func TestFlightConcurrentFailures(t *testing.T) {
	// Hammer one key with failures and successes from many goroutines;
	// exercised under -race this validates the delete-before-close
	// ordering in do.
	var f flight[int]
	var fail atomic.Bool
	fail.Store(true)
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i == 32 {
				fail.Store(false)
			}
			f.do(context.Background(), "k", func() (int, error) {
				if fail.Load() {
					return 0, errors.New("flaky")
				}
				return 5, nil
			})
		}(i)
	}
	wg.Wait()
	// Whether or not a success got cached above (every goroutine may have
	// shared one failing leader), this call must now succeed and cache.
	v, err := f.do(context.Background(), "k", func() (int, error) { return 5, nil })
	if err != nil || v != 5 {
		t.Fatalf("final do = %d, %v", v, err)
	}
}

func TestFlightDistinctKeys(t *testing.T) {
	var f flight[string]
	a, _ := f.do(context.Background(), "a", func() (string, error) { return "A", nil })
	b, _ := f.do(context.Background(), "b", func() (string, error) { return "B", nil })
	if a != "A" || b != "B" {
		t.Fatalf("cross-key contamination: %q %q", a, b)
	}
}

func TestHarnessConcurrentRuns(t *testing.T) {
	h := testHarness()
	arms := []Arm{
		{Workload: "compress", Pred: "gshare:1KB", Scheme: "none"},
		{Workload: "compress", Pred: "gshare:1KB", Scheme: "static95"},
		{Workload: "compress", Pred: "bimodal:1KB", Scheme: "none"},
		{Workload: "ijpeg", Pred: "gshare:1KB", Scheme: "none"},
	}
	var wg sync.WaitGroup
	results := make([][]uint64, len(arms))
	for round := 0; round < 4; round++ {
		for i, a := range arms {
			wg.Add(1)
			go func(i int, a Arm) {
				defer wg.Done()
				m, err := h.Run(context.Background(), a)
				if err != nil {
					t.Errorf("%+v: %v", a, err)
					return
				}
				results[i] = append(results[i], m.Mispredicts)
			}(i, a)
		}
		wg.Wait() // rounds serialize so the per-arm slices are race-free
	}
	for i, rs := range results {
		for _, v := range rs[1:] {
			if v != rs[0] {
				t.Fatalf("arm %d returned differing results: %v", i, rs)
			}
		}
	}
}
