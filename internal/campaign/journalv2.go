package campaign

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"repro/internal/bench"
	"repro/internal/colenc"
	"repro/internal/telemetry"
)

// magicV2 is the journal header: 8 bytes, written durably before the
// first chunk. Every journal is the chunked binary v2 layout: this
// header followed by CRC32-framed chunks of column-major, delta- and
// varint-compressed records, fsynced per sealed chunk (group commit).
// One fsync covers a whole chunk and samples cost a few bytes, at the
// price that an OS crash may lose the unsealed tail (which resume
// re-measures deterministically).
var magicV2 = []byte("SCIBJv2\n")

// isV2 reports whether journal bytes can be a v2 journal: they start
// with the header, or are a prefix of it — empty, or a header torn by a
// crash inside Create, which replay recovers as an empty journal.
func isV2(data []byte) bool {
	return bytes.HasPrefix(data, magicV2) || bytes.HasPrefix(magicV2, data)
}

// Per-record kind codes in a v2 chunk's kind column. kindLiteral
// escapes a kind outside the closed set: uvarint length + raw bytes
// follow, so the format never silently narrows bench's event
// vocabulary.
const (
	kindWarmup  = 0
	kindSample  = 1
	kindRetry   = 2
	kindPanic   = 3
	kindLoss    = 4
	kindLiteral = 0xFF
)

func kindCode(k bench.EventKind) (byte, bool) {
	switch k {
	case bench.EventWarmup:
		return kindWarmup, true
	case bench.EventSample:
		return kindSample, true
	case bench.EventRetry:
		return kindRetry, true
	case bench.EventPanic:
		return kindPanic, true
	case bench.EventLoss:
		return kindLoss, true
	default:
		return 0, false
	}
}

func kindFromCode(c byte) (bench.EventKind, bool) {
	switch c {
	case kindWarmup:
		return bench.EventWarmup, true
	case kindSample:
		return bench.EventSample, true
	case kindRetry:
		return bench.EventRetry, true
	case kindPanic:
		return bench.EventPanic, true
	case kindLoss:
		return bench.EventLoss, true
	default:
		return "", false
	}
}

// appendChunkV2 encodes recs (which must be non-empty with dense seqs)
// as one self-contained column-major chunk payload:
//
//	uvarint firstSeq              — dense-continuation check on replay
//	uvarint count
//	kind column: count × (code byte | 0xFF + uvarint len + bytes)
//	calls column: varint calls[0], then delta-of-delta varints —
//	  cumulative call counts grow by near-constant strides (the batch
//	  size), so second differences are near zero and cost one byte
//	value column: XOR-float deltas against the previous record's bits
//	  (chunk-local, starting from 0) — consecutive observations of the
//	  same quantity share sign/exponent/high-mantissa bits
func appendChunkV2(dst []byte, recs []Record) []byte {
	dst = colenc.AppendUvarint(dst, uint64(recs[0].Seq))
	dst = colenc.AppendUvarint(dst, uint64(len(recs)))
	for _, r := range recs {
		if c, ok := kindCode(r.Event.Kind); ok {
			dst = append(dst, c)
		} else {
			dst = append(dst, kindLiteral)
			dst = colenc.AppendUvarint(dst, uint64(len(r.Event.Kind)))
			dst = append(dst, r.Event.Kind...)
		}
	}
	prevCalls, prevDelta := int64(0), int64(0)
	for i, r := range recs {
		c := int64(r.Event.Calls)
		if i == 0 {
			dst = colenc.AppendVarint(dst, c)
		} else {
			d := c - prevCalls
			dst = colenc.AppendVarint(dst, d-prevDelta)
			prevDelta = d
		}
		prevCalls = c
	}
	prevBits := uint64(0)
	for _, r := range recs {
		bits := math.Float64bits(r.Event.Value)
		dst = colenc.AppendFloatDelta(dst, prevBits, bits)
		prevBits = bits
	}
	return dst
}

// decodeChunkV2 decodes one CRC-verified chunk payload whose records
// must continue densely after have prior records. It is strict — a
// count that cannot fit the payload, a non-dense firstSeq, an unknown
// structure, or trailing bytes all fail — because a CRC-valid frame
// with an undecodable payload is corruption, not slack.
func decodeChunkV2(payload []byte, have int) ([]Record, bool) {
	d := colenc.NewDec(payload)
	firstSeq := d.Uvarint()
	count := d.Uvarint()
	// Every record costs at least one byte in the kind column alone, so
	// count is bounded by the remaining payload — this caps allocation
	// before a fuzzed count field can ask for gigabytes.
	if d.Bad() || count == 0 || count > uint64(d.Len()) {
		return nil, false
	}
	if firstSeq != uint64(have)+1 {
		return nil, false
	}
	recs := make([]Record, count)
	for i := range recs {
		recs[i].Seq = have + 1 + i
		c := d.Byte()
		if c == kindLiteral {
			n := d.Uvarint()
			if d.Bad() || n > uint64(d.Len()) {
				return nil, false
			}
			recs[i].Event.Kind = bench.EventKind(d.Bytes(int(n)))
		} else {
			k, ok := kindFromCode(c)
			if !ok {
				return nil, false
			}
			recs[i].Event.Kind = k
		}
	}
	prevCalls, prevDelta := int64(0), int64(0)
	for i := range recs {
		if i == 0 {
			prevCalls = d.Varint()
		} else {
			prevDelta += d.Varint()
			prevCalls += prevDelta
		}
		recs[i].Event.Calls = int(prevCalls)
	}
	prevBits := uint64(0)
	for i := range recs {
		prevBits = d.FloatDelta(prevBits)
		recs[i].Event.Value = math.Float64frombits(prevBits)
	}
	if !d.Done() {
		return nil, false
	}
	return recs, true
}

// Replay scans raw journal bytes and reconstructs the verified state:
// header, then frames, accepting chunks up to (not including) the first
// one that fails framing, CRC verification, decoding or dense sequence
// numbering — a crash mid-append leaves exactly such a torn tail, which
// is dropped. Empty input is an empty journal. A torn header (crash
// inside Create before the header reached disk) yields Torn with
// ValidBytes 0, and Open rewrites the header; bytes that are not v2 at
// all read the same way here, which is why Load refuses them first.
func Replay(data []byte) State {
	var st State
	if len(data) == 0 {
		return st
	}
	if !bytes.HasPrefix(data, magicV2) {
		st.Torn = true
		return st
	}
	st.ValidBytes = int64(len(magicV2))
	rest := data[len(magicV2):]
	for len(rest) > 0 {
		payload, n, ok := colenc.ReadFrame(rest)
		if !ok {
			st.Torn = true
			return st
		}
		recs, ok := decodeChunkV2(payload, len(st.Records))
		if !ok {
			st.Torn = true
			return st
		}
		st.Records = append(st.Records, recs...)
		st.ValidBytes += int64(n)
		rest = rest[n:]
	}
	return st
}

// writeHeaderV2 writes the format header durably, so every future
// reader — including one racing a crash — recognises v2 from the
// verified prefix before any chunk exists.
func (j *Journal) writeHeaderV2() error {
	if _, err := journalWrite(j.f, magicV2); err != nil {
		j.rewind()
		return fmt.Errorf("campaign: writing journal header: %w", err)
	}
	if err := fsyncFile(j.f); err != nil {
		j.rewind()
		return fmt.Errorf("campaign: syncing journal header: %w", err)
	}
	j.good = int64(len(magicV2))
	return nil
}

// seal writes the pending records as one CRC-framed chunk and fsyncs
// it. On failure the file is rewound to the last durable offset but
// pending is kept: the records were accepted, and a caller that retries
// (or a Close after a transient error) seals them again — the journal
// on disk never holds a torn fragment between chunks.
func (j *Journal) seal() error {
	if len(j.pending) == 0 {
		return nil
	}
	frame := colenc.AppendFrame(nil, appendChunkV2(nil, j.pending))
	if _, err := journalWrite(j.f, frame); err != nil {
		j.rewind()
		return fmt.Errorf("campaign: appending chunk: %w", err)
	}
	t0 := time.Now()
	if err := fsyncFile(j.f); err != nil {
		j.rewind()
		return fmt.Errorf("campaign: syncing journal: %w", err)
	}
	telFsyncUs.Observe(telemetry.Us(time.Since(t0)))
	j.seq += len(j.pending)
	j.good += int64(len(frame))
	telRecords.Add(int64(len(j.pending)))
	telChunks.Inc()
	j.pending = j.pending[:0]
	return nil
}
