package telemetry

import (
	"bytes"
	"io"
	"sync"

	"repro/internal/colenc"
)

// traceMagic is the binary trace format header, mirroring the campaign
// journal's discipline: a sniffable 8-byte magic, then CRC32-framed
// column-major chunks (colenc). A trace is advisory observability data,
// so the reader's torn-tail handling simply drops the unreadable
// suffix.
var traceMagic = []byte("SCITRv2\n")

// traceFlushEvery is how many spans a chunk accumulates before it is
// framed and written.
const traceFlushEvery = 128

// BinaryTraceWriter is a SpanSink that streams spans as chunked binary
// instead of JSON lines: a per-chunk string table for names and details
// (span names repeat heavily — "collection", "analysis", …), varint
// deltas for IDs and start timestamps, varint durations. The same
// encoder as the v2 campaign journal, roughly an order of magnitude
// smaller than one JSON line per span.
type BinaryTraceWriter struct {
	mu      sync.Mutex
	w       io.Writer
	pending []Span
	header  bool
	err     error
}

// NewBinaryTraceWriter returns a writer streaming chunks to w. The
// caller owns w (and closes it after Close).
func NewBinaryTraceWriter(w io.Writer) *BinaryTraceWriter {
	return &BinaryTraceWriter{w: w}
}

// WriteSpan buffers one span, flushing a chunk every traceFlushEvery
// spans. Errors latch: a trace that cannot be written stops consuming
// work (it is observability, not data — dropping it must never stall
// the harness).
func (bw *BinaryTraceWriter) WriteSpan(sp Span) {
	bw.mu.Lock()
	defer bw.mu.Unlock()
	if bw.err != nil {
		return
	}
	bw.pending = append(bw.pending, sp)
	if len(bw.pending) >= traceFlushEvery {
		bw.flushLocked()
	}
}

// Flush writes any buffered spans as a (short) chunk.
func (bw *BinaryTraceWriter) Flush() error {
	bw.mu.Lock()
	defer bw.mu.Unlock()
	bw.flushLocked()
	return bw.err
}

// Close flushes; the underlying writer stays open (the caller owns it).
func (bw *BinaryTraceWriter) Close() error { return bw.Flush() }

func (bw *BinaryTraceWriter) flushLocked() {
	if bw.err == nil && !bw.header {
		if _, err := bw.w.Write(traceMagic); err != nil {
			bw.err = err
			return
		}
		bw.header = true
	}
	if bw.err != nil || len(bw.pending) == 0 {
		return
	}
	frame := colenc.AppendFrame(nil, appendTraceChunk(nil, bw.pending))
	if _, err := bw.w.Write(frame); err != nil {
		bw.err = err
		return
	}
	bw.pending = bw.pending[:0]
}

// appendTraceChunk encodes one self-contained chunk:
//
//	uvarint count
//	string table: uvarint n, then n × (uvarint len, bytes) — every
//	  distinct Name and Detail in the chunk, in first-use order
//	per span: varint Δid (vs previous span, 0 start), uvarint parent,
//	  uvarint name index, uvarint detail index, varint ΔStartUs,
//	  varint DurUs
func appendTraceChunk(dst []byte, spans []Span) []byte {
	dst = colenc.AppendUvarint(dst, uint64(len(spans)))
	idx := make(map[string]uint64)
	var table []string
	intern := func(s string) uint64 {
		if i, ok := idx[s]; ok {
			return i
		}
		i := uint64(len(table))
		idx[s] = i
		table = append(table, s)
		return i
	}
	type enc struct{ name, detail uint64 }
	encs := make([]enc, len(spans))
	for i, sp := range spans {
		encs[i] = enc{intern(sp.Name), intern(sp.Detail)}
	}
	dst = colenc.AppendUvarint(dst, uint64(len(table)))
	for _, s := range table {
		dst = colenc.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	prevID, prevStart := int64(0), int64(0)
	for i, sp := range spans {
		dst = colenc.AppendVarint(dst, int64(sp.ID)-prevID)
		prevID = int64(sp.ID)
		dst = colenc.AppendUvarint(dst, uint64(sp.Parent))
		dst = colenc.AppendUvarint(dst, encs[i].name)
		dst = colenc.AppendUvarint(dst, encs[i].detail)
		dst = colenc.AppendVarint(dst, sp.StartUs-prevStart)
		prevStart = sp.StartUs
		dst = colenc.AppendVarint(dst, sp.DurUs)
	}
	return dst
}

// decodeTraceChunk decodes one CRC-verified chunk payload.
func decodeTraceChunk(payload []byte) ([]Span, bool) {
	d := colenc.NewDec(payload)
	count := d.Uvarint()
	// Each span costs at least one byte per field, so count (like the
	// table size below) is bounded by the remaining payload — capping
	// allocation before a corrupt count can ask for gigabytes.
	if d.Bad() || count > uint64(d.Len()) {
		return nil, false
	}
	ns := d.Uvarint()
	if d.Bad() || ns > uint64(d.Len()) {
		return nil, false
	}
	table := make([]string, ns)
	for i := range table {
		ln := d.Uvarint()
		if d.Bad() || ln > uint64(d.Len()) {
			return nil, false
		}
		table[i] = string(d.Bytes(int(ln)))
	}
	spans := make([]Span, count)
	prevID, prevStart := int64(0), int64(0)
	for i := range spans {
		prevID += d.Varint()
		spans[i].ID = SpanID(prevID)
		spans[i].Parent = SpanID(d.Uvarint())
		ni, di := d.Uvarint(), d.Uvarint()
		if d.Bad() || ni >= uint64(len(table)) || di >= uint64(len(table)) {
			return nil, false
		}
		spans[i].Name = table[ni]
		spans[i].Detail = table[di]
		prevStart += d.Varint()
		spans[i].StartUs = prevStart
		spans[i].DurUs = d.Varint()
	}
	if !d.Done() {
		return nil, false
	}
	return spans, true
}

// ReadBinaryTrace decodes a binary trace file, returning the spans of
// every whole, CRC-verified chunk. torn reports that a trailing partial
// or corrupt chunk was dropped (the expected shape after a crash). The
// trace file is opened append-mode, so a resumed
// campaign concatenates sessions; a repeated magic between chunks is a
// session separator and is skipped.
func ReadBinaryTrace(data []byte) (spans []Span, torn bool) {
	if !bytes.HasPrefix(data, traceMagic) {
		return nil, len(data) > 0
	}
	rest := data[len(traceMagic):]
	for len(rest) > 0 {
		if bytes.HasPrefix(rest, traceMagic) {
			rest = rest[len(traceMagic):]
			continue
		}
		payload, n, ok := colenc.ReadFrame(rest)
		if !ok {
			return spans, true
		}
		chunk, ok := decodeTraceChunk(payload)
		if !ok {
			return spans, true
		}
		spans = append(spans, chunk...)
		rest = rest[n:]
	}
	return spans, false
}
