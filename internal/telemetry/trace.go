package telemetry

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/timer"
)

// traceRing bounds how many completed spans the tracer retains for the
// /trace endpoint; the sink, when set, receives every span.
const traceRing = 1024

// SpanID identifies one span; 0 is "no span" (root).
type SpanID uint64

// Span is one completed interval of harness work. The hierarchy the
// harness emits is campaign → sweep → config → collection → analysis,
// linked by Parent. Timestamps are microseconds on the tracer's
// monotonic clock (internal/timer), not wall-clock dates: spans order
// and subtract reliably but carry no calendar meaning.
type Span struct {
	ID      SpanID `json:"id"`
	Parent  SpanID `json:"parent,omitempty"`
	Name    string `json:"name"`
	Detail  string `json:"detail,omitempty"`
	StartUs int64  `json:"start_us"`
	DurUs   int64  `json:"dur_us"`
}

// SpanSink receives every completed span the tracer records. WriteSpan
// is called serially (under the tracer's lock), so sinks need no
// locking of their own for tracer-driven writes.
type SpanSink interface {
	WriteSpan(Span)
}

// Tracer records hierarchical spans. Disabled (the default) it costs one
// atomic load per instrumentation site and allocates nothing; enabled it
// appends completed spans to a bounded ring and, when a sink is set,
// streams each to it (e.g. the chunked binary trace writer).
type Tracer struct {
	enabled atomic.Bool
	ids     atomic.Uint64
	clock   timer.Clock

	mu   sync.Mutex
	sink SpanSink
	ring []Span
	next int
}

// NewTracer returns a disabled tracer on its own monotonic clock.
func NewTracer() *Tracer {
	return &Tracer{clock: timer.NewWallClock()}
}

// tracer is the process-wide default the harness instruments.
var tracer = NewTracer()

// EnableSink arms the tracer with a span sink (e.g. a
// BinaryTraceWriter). Pass nil to keep spans only in the in-memory ring
// (still served by /trace).
func (t *Tracer) EnableSink(sink SpanSink) {
	t.mu.Lock()
	t.sink = sink
	t.mu.Unlock()
	t.enabled.Store(true)
}

// Disable stops span collection and detaches the sink. Spans already in
// the ring remain readable.
func (t *Tracer) Disable() {
	t.enabled.Store(false)
	t.mu.Lock()
	t.sink = nil
	t.mu.Unlock()
}

// Recent returns the retained completed spans, oldest first.
func (t *Tracer) Recent() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.ring))
	if len(t.ring) == traceRing {
		out = append(out, t.ring[t.next:]...)
		out = append(out, t.ring[:t.next]...)
	} else {
		out = append(out, t.ring...)
	}
	return out
}

// ActiveSpan is a started, not-yet-ended span. A nil ActiveSpan (the
// disabled tracer's product) is valid: End and ID are no-ops, so
// instrumentation sites stay unconditional.
type ActiveSpan struct {
	t      *Tracer
	span   Span
	start  time.Duration
	closed atomic.Bool
}

// Start begins a span under parent (0 for a root span). Returns nil when
// the tracer is disabled.
func (t *Tracer) Start(parent SpanID, name, detail string) *ActiveSpan {
	if t == nil || !t.enabled.Load() {
		return nil
	}
	return &ActiveSpan{
		t: t,
		span: Span{
			ID:     SpanID(t.ids.Add(1)),
			Parent: parent,
			Name:   name,
			Detail: detail,
		},
		start: t.clock.Now(),
	}
}

// ID returns the span's identity for parenting children (0 on nil).
func (a *ActiveSpan) ID() SpanID {
	if a == nil {
		return 0
	}
	return a.span.ID
}

// End completes the span and records it. Safe on nil; a second End is a
// no-op, so deferred and explicit ends may coexist.
func (a *ActiveSpan) End() {
	if a == nil || a.closed.Swap(true) {
		return
	}
	end := a.t.clock.Now()
	a.span.StartUs = int64(a.start / time.Microsecond)
	a.span.DurUs = int64((end - a.start) / time.Microsecond)
	a.t.record(a.span)
}

// record appends one completed span to the ring and the sink.
func (t *Tracer) record(sp Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.ring) < traceRing {
		t.ring = append(t.ring, sp)
	} else {
		t.ring[t.next] = sp
		t.next = (t.next + 1) % traceRing
	}
	if t.sink != nil {
		t.sink.WriteSpan(sp)
	}
}

// ctxKey carries the current span through context, so layers nest spans
// without any API change: suite puts its config span into the ctx it
// already passes to bench, and bench's collection span parents under it.
type ctxKey struct{}

// ContextWithSpan returns ctx carrying id as the current span.
func ContextWithSpan(ctx context.Context, id SpanID) context.Context {
	return context.WithValue(ctx, ctxKey{}, id)
}

// SpanFromContext returns the current span in ctx (0 when none).
func SpanFromContext(ctx context.Context) SpanID {
	if ctx == nil {
		return 0
	}
	if id, ok := ctx.Value(ctxKey{}).(SpanID); ok {
		return id
	}
	return 0
}

// StartSpan starts a child of ctx's current span on the default tracer
// and returns a context carrying the new span for deeper layers. With
// the tracer disabled it returns ctx unchanged and a nil span — zero
// allocation on the off path.
func StartSpan(ctx context.Context, name, detail string) (context.Context, *ActiveSpan) {
	sp := tracer.Start(SpanFromContext(ctx), name, detail)
	if sp == nil {
		return ctx, nil
	}
	return ContextWithSpan(ctx, sp.ID()), sp
}

// Us converts a duration to float microseconds — the unit every harness
// histogram records, matching the µs the suite reports measurements in.
func Us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// EnableSink arms the default tracer with a span sink; nil keeps spans
// only in the in-memory ring.
func EnableSink(sink SpanSink) { tracer.EnableSink(sink) }

// Disable disarms the default tracer.
func Disable() { tracer.Disable() }
