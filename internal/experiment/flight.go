package experiment

import (
	"context"
	"sync"
)

// flight is a memoizing singleflight: concurrent callers of the same key
// share one execution of fn, and successful results are cached forever. It
// is what lets experiments run in parallel over one harness without
// recomputing the shared baseline arms.
//
// Failures are not memoized: the error is delivered to every caller waiting
// on the failed execution, but the key is released, so a later do call
// computes afresh — one failed arm does not poison the cache for the rest
// of a sweep.
type flight[T any] struct {
	mu sync.Mutex
	m  map[string]*call[T]
}

type call[T any] struct {
	done chan struct{}
	val  T
	err  error
}

// do returns the cached result for key, computing it with fn on first use.
// If another goroutine is already computing key, do blocks until it finishes
// and shares the result — including a failure, since the waiters' arms
// genuinely depend on that execution. A waiter whose ctx expires first
// abandons the wait with ctx's error; the computation itself keeps running
// for the callers that still want it.
func (f *flight[T]) do(ctx context.Context, key string, fn func() (T, error)) (T, error) {
	v, _, err := f.doShared(ctx, key, fn)
	return v, err
}

// doShared is do, additionally reporting whether the result was shared: true
// when the call coalesced onto an already-memoized or in-flight computation
// (fn did not run on behalf of this caller), false when this caller computed.
// The flag feeds the observability layer's singleflight-hit counter.
func (f *flight[T]) doShared(ctx context.Context, key string, fn func() (T, error)) (T, bool, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	f.mu.Lock()
	if f.m == nil {
		f.m = map[string]*call[T]{}
	}
	if c, ok := f.m[key]; ok {
		f.mu.Unlock()
		select {
		case <-c.done:
			return c.val, true, c.err
		case <-ctx.Done():
			var zero T
			return zero, true, ctx.Err()
		}
	}
	c := &call[T]{done: make(chan struct{})}
	f.m[key] = c
	f.mu.Unlock()

	c.val, c.err = fn()
	if c.err != nil {
		// Release the key before waking waiters so a caller that tries
		// again can never observe the failed entry.
		f.mu.Lock()
		delete(f.m, key)
		f.mu.Unlock()
	}
	close(c.done)
	return c.val, false, c.err
}

// size reports the number of cached (or in-flight) keys.
func (f *flight[T]) size() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.m)
}
