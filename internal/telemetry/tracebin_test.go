package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
)

func traceSpans(n int) []Span {
	names := []string{"campaign", "sweep", "config", "collection", "analysis"}
	spans := make([]Span, n)
	for i := range spans {
		spans[i] = Span{
			ID:      SpanID(i + 1),
			Parent:  SpanID(i / 2),
			Name:    names[i%len(names)],
			Detail:  fmt.Sprintf("cfg-%02d", i%7),
			StartUs: int64(1000 + 37*i),
			DurUs:   int64(5 + i%11),
		}
	}
	return spans
}

func TestBinaryTraceRoundTrip(t *testing.T) {
	spans := traceSpans(300) // crosses the chunk width
	var buf bytes.Buffer
	bw := NewBinaryTraceWriter(&buf)
	for _, sp := range spans {
		bw.WriteSpan(sp)
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	got, torn := ReadBinaryTrace(buf.Bytes())
	if torn {
		t.Fatal("clean trace read back torn")
	}
	if len(got) != len(spans) {
		t.Fatalf("%d spans, want %d", len(got), len(spans))
	}
	for i := range got {
		if got[i] != spans[i] {
			t.Fatalf("span %d = %+v, want %+v", i, got[i], spans[i])
		}
	}
}

// TestBinaryTraceCompression pins the size win over JSONL: ≥5× on a
// realistic repetitive span stream.
func TestBinaryTraceCompression(t *testing.T) {
	spans := traceSpans(1000)
	var jsonl, bin bytes.Buffer
	for _, sp := range spans {
		b, err := json.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		jsonl.Write(append(b, '\n'))
	}
	bw := NewBinaryTraceWriter(&bin)
	for _, sp := range spans {
		bw.WriteSpan(sp)
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	if bin.Len()*5 > jsonl.Len() {
		t.Fatalf("binary trace %d bytes vs JSONL %d: ratio %.2f < 5",
			bin.Len(), jsonl.Len(), float64(jsonl.Len())/float64(bin.Len()))
	}
	t.Logf("1000 spans: JSONL %d bytes, binary %d bytes (%.1f×)",
		jsonl.Len(), bin.Len(), float64(jsonl.Len())/float64(bin.Len()))
}

// TestBinaryTraceTornAndCorrupt: truncations and bit flips must never
// panic, never invent spans, and always be reported torn unless the
// mutation landed beyond the verified prefix.
func TestBinaryTraceTornAndCorrupt(t *testing.T) {
	spans := traceSpans(200)
	var buf bytes.Buffer
	bw := NewBinaryTraceWriter(&buf)
	for _, sp := range spans {
		bw.WriteSpan(sp)
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for cut := 0; cut <= len(data); cut += 7 {
		got, _ := ReadBinaryTrace(data[:cut])
		if len(got) > len(spans) {
			t.Fatalf("cut %d: invented spans", cut)
		}
		for i := range got {
			if got[i] != spans[i] {
				t.Fatalf("cut %d: span %d corrupted", cut, i)
			}
		}
	}
	for pos := 0; pos < len(data); pos += 3 {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x20
		got, _ := ReadBinaryTrace(mut)
		if len(got) > len(spans) {
			t.Fatalf("pos %d: invented spans", pos)
		}
	}
}

// TestBinaryTraceConcatenatedSessions: the trace file is append-mode,
// so a resumed campaign concatenates whole traces; the reader must
// treat the embedded magic as a session separator.
func TestBinaryTraceConcatenatedSessions(t *testing.T) {
	spans := traceSpans(10)
	var buf bytes.Buffer
	for s := 0; s < 3; s++ {
		bw := NewBinaryTraceWriter(&buf)
		for _, sp := range spans {
			bw.WriteSpan(sp)
		}
		if err := bw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	got, torn := ReadBinaryTrace(buf.Bytes())
	if torn || len(got) != 3*len(spans) {
		t.Fatalf("torn=%v spans=%d, want %d clean", torn, len(got), 3*len(spans))
	}
}

// TestTracerBinarySink wires the sink through the tracer end to end.
func TestTracerBinarySink(t *testing.T) {
	tr := NewTracer()
	var buf bytes.Buffer
	bw := NewBinaryTraceWriter(&buf)
	tr.EnableSink(bw)
	defer tr.Disable()
	root := tr.Start(0, "campaign", "e2e")
	child := tr.Start(root.ID(), "collection", "cfg-1")
	child.End()
	root.End()
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	got, torn := ReadBinaryTrace(buf.Bytes())
	if torn || len(got) != 2 {
		t.Fatalf("torn=%v spans=%d, want 2 clean", torn, len(got))
	}
	if got[0].Name != "collection" || got[1].Name != "campaign" {
		t.Fatalf("span order/names: %+v", got)
	}
	if got[0].Parent != got[1].ID {
		t.Fatal("child span lost its parent link")
	}
}
