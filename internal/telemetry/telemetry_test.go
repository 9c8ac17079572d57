package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("c") != c {
		t.Error("second lookup returned a different counter")
	}

	g := r.Gauge("g")
	g.Set(7)
	if now := g.Add(2); now != 9 {
		t.Errorf("Add returned %d, want 9", now)
	}
	g.Add(-3)
	if got := g.Value(); got != 6 {
		t.Errorf("gauge = %d, want 6", got)
	}
}

func TestHistogramSnapshot(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h")
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count=%d, want 100", s.Count)
	}
	if s.Mean != 50.5 || s.Min != 1 || s.Max != 100 {
		t.Errorf("mean=%g min=%g max=%g", s.Mean, s.Min, s.Max)
	}
	// Nearest-rank quantiles of 1..100 are 50, 90 and 99.
	for _, q := range []struct{ got, want float64 }{{s.P50, 50}, {s.P90, 90}, {s.P99, 99}} {
		if math.Abs(q.got-q.want)/q.want > 1.0/64 {
			t.Errorf("quantile %g, want %g within 1/64", q.got, q.want)
		}
	}
}

// TestHistogramFullStream pins that snapshot quantiles describe every
// observation, not a recent window: a window over the last 512 of
// 0..1535 would put the median above 1024.
func TestHistogramFullStream(t *testing.T) {
	h := &Histogram{}
	const n = 1536
	for i := 0; i < n; i++ {
		h.Observe(float64(i))
	}
	s := h.Snapshot()
	if s.Count != n {
		t.Errorf("count = %d, want %d", s.Count, n)
	}
	if s.Min != 0 || s.Max != n-1 {
		t.Errorf("min = %g, max = %g, want 0 and %d", s.Min, s.Max, n-1)
	}
	if want := 767.0; math.Abs(s.P50-want)/want > 1.0/64 {
		t.Errorf("p50 = %g, want %g within 1/64 (full stream)", s.P50, want)
	}
}

func TestEmptyHistogramSerializes(t *testing.T) {
	r := NewRegistry()
	r.Histogram("empty")
	r.Histogram("one").Observe(3)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON with NaN-prone histograms: %v", err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if got := snap.Histograms["empty"]; got != (HistogramSnapshot{}) {
		t.Errorf("empty histogram snapshot = %+v, want all zero (NaN sanitized)", got)
	}
	want := HistogramSnapshot{Count: 1, Mean: 3, Min: 3, Max: 3, P50: 3, P90: 3, P99: 3}
	if got := snap.Histograms["one"]; got != want {
		t.Errorf("single-observation snapshot = %+v, want %+v", got, want)
	}
}

func TestTracerDisabledIsFree(t *testing.T) {
	tr := NewTracer()
	if sp := tr.Start(0, "x", ""); sp != nil {
		t.Fatal("disabled tracer returned a live span")
	}
	var nilSpan *ActiveSpan
	nilSpan.End() // must not panic
	if nilSpan.ID() != 0 {
		t.Error("nil span ID != 0")
	}
	if len(tr.Recent()) != 0 {
		t.Error("disabled tracer recorded spans")
	}
}

func TestTracerRecordsHierarchy(t *testing.T) {
	tr := NewTracer()
	var sink spanCollector
	tr.EnableSink(&sink)
	defer tr.Disable()

	parent := tr.Start(0, "sweep", "2 configurations")
	child := tr.Start(parent.ID(), "config", "reduce p=2")
	child.End()
	child.End() // idempotent
	parent.End()

	spans := tr.Recent()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	// Children end first, so the ring holds child then parent.
	if spans[0].Name != "config" || spans[0].Parent != parent.ID() {
		t.Errorf("child span = %+v", spans[0])
	}
	if spans[1].Name != "sweep" || spans[1].Parent != 0 {
		t.Errorf("root span = %+v", spans[1])
	}
	if spans[0].DurUs < 0 || spans[1].DurUs < spans[0].DurUs {
		t.Errorf("durations: child %d, parent %d", spans[0].DurUs, spans[1].DurUs)
	}

	// The sink got every completed span, in completion order.
	if len(sink) != 2 || sink[0] != spans[0] || sink[1] != spans[1] {
		t.Fatalf("sink holds %+v, want %+v", sink, spans)
	}
}

// spanCollector is a SpanSink that keeps every span it is handed.
type spanCollector []Span

func (c *spanCollector) WriteSpan(sp Span) { *c = append(*c, sp) }

func TestTracerRingWraps(t *testing.T) {
	tr := NewTracer()
	tr.EnableSink(nil)
	defer tr.Disable()
	for i := 0; i < traceRing+10; i++ {
		tr.Start(0, "s", "").End()
	}
	spans := tr.Recent()
	if len(spans) != traceRing {
		t.Fatalf("ring holds %d, want %d", len(spans), traceRing)
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].ID <= spans[i-1].ID {
			t.Fatalf("ring not oldest-first at %d: %d then %d", i, spans[i-1].ID, spans[i].ID)
		}
	}
}

func TestStartSpanContextPropagation(t *testing.T) {
	tr := DefaultTracer()
	tr.EnableSink(nil)
	defer tr.Disable()

	ctx := context.Background()
	ctx1, root := StartSpan(ctx, "campaign", "dir")
	if root == nil {
		t.Fatal("enabled StartSpan returned nil")
	}
	if SpanFromContext(ctx1) != root.ID() {
		t.Error("context does not carry the root span")
	}
	ctx2, child := StartSpan(ctx1, "collection", "")
	child.End()
	root.End()
	if SpanFromContext(ctx2) != child.ID() {
		t.Error("context does not carry the child span")
	}
	spans := tr.Recent()
	last := spans[len(spans)-1]
	prev := spans[len(spans)-2]
	if prev.Parent != last.ID {
		t.Errorf("collection span parent = %d, want %d", prev.Parent, last.ID)
	}

	// Disabled: same context back, nil span, no state.
	tr.Disable()
	ctx3, sp := StartSpan(ctx, "x", "")
	if ctx3 != ctx || sp != nil {
		t.Error("disabled StartSpan allocated")
	}
}

// TestRegistryConcurrent hammers every metric type, the snapshot path,
// and the tracer from many goroutines at once; it exists to run under
// the race detector (make race).
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer()
	tr.EnableSink(nil)
	defer tr.Disable()

	const goroutines = 8
	const iters = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("c").Inc()
				occ := r.Gauge("g").Add(1)
				r.Histogram("h").Observe(float64(occ))
				sp := tr.Start(0, "work", "")
				if i%50 == 0 {
					_ = r.Snapshot()
					_ = tr.Recent()
					var buf bytes.Buffer
					if err := r.WriteJSON(&buf); err != nil {
						t.Error(err)
					}
				}
				sp.End()
				r.Gauge("g").Add(-1)
			}
		}(g)
	}
	wg.Wait()

	if got := r.Counter("c").Value(); got != goroutines*iters {
		t.Errorf("counter = %d, want %d", got, goroutines*iters)
	}
	if got := r.Gauge("g").Value(); got != 0 {
		t.Errorf("gauge = %d, want 0 after balanced adds", got)
	}
	if got := r.Histogram("h").Snapshot().Count; got != goroutines*iters {
		t.Errorf("histogram count = %d, want %d", got, goroutines*iters)
	}
}
