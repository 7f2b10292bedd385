package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the request-scoped tracing layer: hierarchical spans with
// trace/span/parent identifiers, propagated through context.Context from the
// HTTP request down to individual arm phases, plus cross-trace links so a
// tenant's latency stays decomposable when its work was deduplicated onto
// another tenant's trace (singleflight followers, shared-capture consumers).
//
// Span frames are live-only — published to the event bus as versioned
// {type:"span",v:1} records, never journaled — per the arm_start/progress
// precedent: journals must stay byte-identical with tracing on or off.

// SpanContext identifies one span within one trace: the pair a child span
// needs to name its parent, and a link needs to name its target.
type SpanContext struct {
	TraceID string
	SpanID  string
}

// traceCtxKey keys the current SpanContext inside a context.Context.
type traceCtxKey struct{}

// ContextWithSpan returns ctx carrying sc as the current span, so spans
// started under the returned context become its children.
func ContextWithSpan(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, sc)
}

// SpanFromContext returns the current span context, if any.
func SpanFromContext(ctx context.Context) (SpanContext, bool) {
	sc, ok := ctx.Value(traceCtxKey{}).(SpanContext)
	return sc, ok
}

// idSeed is a per-process random base for span/trace identifiers; idSeq
// makes every identifier distinct within the process. IDs only need to be
// unique across the frames one consumer sees, not cryptographically strong.
var (
	idSeed uint64
	idSeq  atomic.Uint64
)

func init() {
	var b [8]byte
	if _, err := crand.Read(b[:]); err == nil {
		idSeed = binary.LittleEndian.Uint64(b[:])
	} else {
		idSeed = uint64(time.Now().UnixNano())
	}
}

// newID returns a 16-hex-character identifier, unique within the process.
func newID() string {
	v := idSeed + idSeq.Add(1)*0x9e3779b97f4a7c15 // golden-ratio stride
	const hexdigits = "0123456789abcdef"
	var out [16]byte
	for i := 15; i >= 0; i-- {
		out[i] = hexdigits[v&0xf]
		v >>= 4
	}
	return string(out[:])
}

// spanKeys is the cross-link registry: a bounded map from an operation key
// (an arm memoization key, a capture key) to the span that is doing — or
// did — that operation. Followers and replay consumers look their winner up
// here to attach a link. Bounded so a long-lived daemon cannot grow it
// without limit; eviction drops the oldest noted keys.
const maxSpanKeys = 4096

type spanKeyStore struct {
	mu    sync.Mutex
	m     map[string]SpanContext
	order []string
}

// NoteSpanKey associates key with span sc in the cross-link registry. No-op
// unless tracing is enabled.
func (o *Observer) NoteSpanKey(key string, sc SpanContext) {
	if o == nil || !o.tracing || sc.TraceID == "" {
		return
	}
	s := &o.spanKeys
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = map[string]SpanContext{}
	}
	if _, ok := s.m[key]; !ok {
		if len(s.order) >= maxSpanKeys {
			delete(s.m, s.order[0])
			s.order = s.order[1:]
		}
		s.order = append(s.order, key)
	}
	s.m[key] = sc
}

// SpanForKey returns the span noted for key, if any.
func (o *Observer) SpanForKey(key string) (SpanContext, bool) {
	if o == nil || !o.tracing {
		return SpanContext{}, false
	}
	s := &o.spanKeys
	s.mu.Lock()
	defer s.mu.Unlock()
	sc, ok := s.m[key]
	return sc, ok
}
