package campaign

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/campaign/v1fixture"
	"repro/internal/colenc"
)

// journalEvents builds a realistic mixed event stream: warmups, samples
// with slowly-drifting values, retries, a panic, a loss, and one kind
// outside the closed code set (the literal-escape path).
func journalEvents(n int) []bench.Event {
	evs := []bench.Event{
		{Kind: bench.EventWarmup, Calls: 1},
		{Kind: bench.EventWarmup, Calls: 2},
	}
	calls := 2
	for i := 0; i < n; i++ {
		calls++
		switch {
		case i%11 == 5:
			evs = append(evs, bench.Event{Kind: bench.EventRetry, Calls: calls})
		case i%17 == 9:
			evs = append(evs, bench.Event{Kind: bench.EventPanic, Calls: calls})
		case i%23 == 13:
			evs = append(evs, bench.Event{Kind: bench.EventLoss, Calls: calls})
		default:
			evs = append(evs, bench.Event{
				Kind: bench.EventSample, Value: 406.125 + float64(i)*1e-3, Calls: calls})
		}
	}
	evs = append(evs, bench.Event{Kind: "experimental-kind", Value: -1.5, Calls: calls + 1})
	return evs
}

// createJournal starts a campaign in a fresh directory.
func createJournal(t *testing.T) (*Journal, string) {
	t.Helper()
	dir := t.TempDir()
	j, err := Create(dir, testManifest(t, 1, testConfig{}, nil))
	if err != nil {
		t.Fatal(err)
	}
	return j, dir
}

// writeJournal journals evs through Record and Close, also sealing a
// chunk with Flush every flushEvery records when flushEvery > 0, and
// returns the campaign directory.
func writeJournal(t *testing.T, flushEvery int, evs []bench.Event) string {
	t.Helper()
	j, dir := createJournal(t)
	for i, ev := range evs {
		if err := j.Record(ev); err != nil {
			t.Fatal(err)
		}
		if flushEvery > 0 && (i+1)%flushEvery == 0 {
			if err := j.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestJournalV2RoundTrip(t *testing.T) {
	evs := journalEvents(100)
	for _, flush := range []int{1, 3, 64, 1000} {
		dir := writeJournal(t, flush, evs)
		_, st, err := Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		if st.Format != FormatV2 || st.Torn {
			t.Fatalf("flush %d: format=%v torn=%v", flush, st.Format, st.Torn)
		}
		if len(st.Records) != len(evs) {
			t.Fatalf("flush %d: %d records, want %d", flush, len(st.Records), len(evs))
		}
		for i, r := range st.Records {
			if r.Seq != i+1 || r.Event != evs[i] {
				t.Fatalf("flush %d: record %d = %+v, want seq %d event %+v",
					flush, i, r, i+1, evs[i])
			}
		}
	}
}

// TestJournalV2TornAtEveryOffset truncates a v2 journal at every byte
// offset: replay must recover exactly the whole sealed chunks that
// survived, mark the rest torn, and Open must truncate to the verified
// prefix and continue appending a journal that replays clean.
func TestJournalV2TornAtEveryOffset(t *testing.T) {
	evs := journalEvents(40)
	dir := writeJournal(t, 8, evs)
	data, err := os.ReadFile(filepath.Join(dir, JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	clean := Replay(data)
	if clean.Torn || len(clean.Records) != len(evs) {
		t.Fatalf("setup: torn=%v records=%d", clean.Torn, len(clean.Records))
	}
	// Valid prefixes are the header plus whole-chunk boundaries.
	valid := map[int64]int{int64(len(magicV2)): 0}
	{
		rest := data[len(magicV2):]
		off, n := int64(len(magicV2)), 0
		for len(rest) > 0 {
			payload, sz, ok := colenc.ReadFrame(rest)
			if !ok {
				t.Fatal("setup: torn chunk in clean journal")
			}
			recs, ok := decodeChunkV2(payload, n)
			if !ok {
				t.Fatal("setup: undecodable chunk")
			}
			n += len(recs)
			off += int64(sz)
			valid[off] = n
			rest = rest[sz:]
		}
	}
	for cut := 0; cut <= len(data); cut++ {
		st := Replay(data[:cut])
		wantRecords, atBoundary := valid[st.ValidBytes]
		if !atBoundary && st.ValidBytes != 0 {
			t.Fatalf("cut %d: ValidBytes %d is not a chunk boundary", cut, st.ValidBytes)
		}
		if len(st.Records) != wantRecords {
			t.Fatalf("cut %d: %d records at ValidBytes %d, want %d",
				cut, len(st.Records), st.ValidBytes, wantRecords)
		}
		if st.ValidBytes > int64(cut) {
			t.Fatalf("cut %d: ValidBytes %d beyond data", cut, st.ValidBytes)
		}
		if wantTorn := int64(cut) != st.ValidBytes; st.Torn != wantTorn {
			t.Fatalf("cut %d: torn=%v want %v (ValidBytes %d)", cut, st.Torn, wantTorn, st.ValidBytes)
		}
	}
}

// TestJournalV2BitFlips mirrors the v1 bit-flip test: a flip anywhere
// must never invent records, break dense numbering, or panic.
func TestJournalV2BitFlips(t *testing.T) {
	evs := journalEvents(30)
	dir := writeJournal(t, 8, evs)
	data, err := os.ReadFile(filepath.Join(dir, JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < len(data); pos++ {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x10
		st := Replay(mut)
		if len(st.Records) > len(evs) {
			t.Fatalf("pos %d: invented records", pos)
		}
		for i, r := range st.Records {
			if r.Seq != i+1 {
				t.Fatalf("pos %d: non-dense seq %d at %d", pos, r.Seq, i)
			}
		}
	}
}

// TestJournalV2TornHeaderRecovers covers a crash inside Create
// before the format header reached disk: replay classifies the partial
// magic as a torn v2 header with an empty verified prefix, and Open
// rewrites the header and appends normally.
func TestJournalV2TornHeaderRecovers(t *testing.T) {
	dir := writeJournal(t, 4, nil)
	path := filepath.Join(dir, JournalFile)
	if err := os.WriteFile(path, magicV2[:3], 0o644); err != nil {
		t.Fatal(err)
	}
	st := Replay(magicV2[:3])
	if st.Format != FormatV2 || !st.Torn || st.ValidBytes != 0 {
		t.Fatalf("torn header replay: %+v", st)
	}
	j, _, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record(bench.Event{Kind: bench.EventSample, Value: 1, Calls: 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Torn || len(got.Records) != 1 || got.Format != FormatV2 {
		t.Fatalf("after recovery: %+v", got)
	}
}

// TestOpenJournalKeepsExistingFormat pins the sniffing contract: Open
// extends a v2 journal in place, and refuses a v1 journal — naming the
// convert command — without appending v1 or converting it silently.
func TestOpenJournalKeepsExistingFormat(t *testing.T) {
	ev := bench.Event{Kind: bench.EventSample, Value: 2.5, Calls: 1}
	ev2 := bench.Event{Kind: bench.EventSample, Value: 2.75, Calls: 2}

	t.Run("v1-refused", func(t *testing.T) {
		dir := writeJournal(t, 0, nil)
		writeV1Journal(t, dir, recordsOf([]bench.Event{ev}))
		before := readFile(t, filepath.Join(dir, JournalFile))
		j, _, _, err := Open(dir)
		if err == nil {
			j.Close()
			t.Fatal("Open appended to a v1 journal")
		}
		if want := "scibench convert " + dir; !strings.Contains(err.Error(), want) {
			t.Errorf("refusal %q does not name %q", err, want)
		}
		if after := readFile(t, filepath.Join(dir, JournalFile)); !bytes.Equal(before, after) {
			t.Error("refused Open modified the v1 journal")
		}
	})

	t.Run("v2-stays-v2", func(t *testing.T) {
		dir := writeJournal(t, 0, []bench.Event{ev})
		j, _, st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Records) != 1 || st.Format != FormatV2 {
			t.Fatalf("records=%d format=%v, want 1 record in v2", len(st.Records), st.Format)
		}
		if err := j.Record(ev2); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		_, got, err := Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got.Format != FormatV2 || len(got.Records) != 2 || got.Torn {
			t.Fatalf("after append: format=%v records=%d torn=%v",
				got.Format, len(got.Records), got.Torn)
		}
		if got.Records[1].Event != ev2 {
			t.Fatalf("appended record = %+v", got.Records[1].Event)
		}
	})
}

// TestJournalV2GroupFlush pins the group-commit contract: records below
// the flush width stay pending (nothing but the header on disk), the
// width-th record seals a chunk, and Flush/Close seal a partial tail.
func TestJournalV2GroupFlush(t *testing.T) {
	j, dir := createJournal(t)
	path := filepath.Join(dir, JournalFile)
	fileLen := func() int64 {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	record := func(i int) {
		t.Helper()
		if err := j.Record(bench.Event{Kind: bench.EventSample, Value: float64(i), Calls: i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < chunkRecords; i++ {
		record(i)
	}
	if n := fileLen(); n != int64(len(magicV2)) {
		t.Fatalf("%d pending records: %d bytes on disk, want bare header (%d)", chunkRecords-1, n, len(magicV2))
	}
	record(chunkRecords)
	sealed := fileLen()
	if sealed <= int64(len(magicV2)) {
		t.Fatalf("record %d did not seal a chunk", chunkRecords)
	}
	if st := Replay(readFile(t, path)); len(st.Records) != chunkRecords || st.Torn {
		t.Fatalf("after seal: records=%d torn=%v", len(st.Records), st.Torn)
	}
	// One more record: pending again, then Flush seals the short chunk.
	record(chunkRecords + 1)
	if n := fileLen(); n != sealed {
		t.Fatalf("pending record hit disk early (%d vs %d)", n, sealed)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := Replay(readFile(t, path)); len(st.Records) != chunkRecords+1 || st.Torn {
		t.Fatalf("after Flush: records=%d torn=%v", len(st.Records), st.Torn)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// recordsOf numbers evs densely from 1, as a journal would.
func recordsOf(evs []bench.Event) []Record {
	recs := make([]Record, len(evs))
	for i, ev := range evs {
		recs[i] = Record{Seq: i + 1, Event: ev}
	}
	return recs
}

// encodeV1 renders records in the read-only v1 layout (see v1fixture).
func encodeV1(tb testing.TB, recs []Record) []byte {
	tb.Helper()
	b, err := v1fixture.Encode(recs)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// writeV1Journal replaces the journal in dir with recs as v1 bytes —
// what a campaign journaled before v2 became the only writer left on
// disk.
func writeV1Journal(t *testing.T, dir string, recs []Record) {
	t.Helper()
	if _, err := v1fixture.Write(filepath.Join(dir, JournalFile), recs); err != nil {
		t.Fatal(err)
	}
}

// tornChunk is what a crash mid-seal leaves at a journal's tail: the
// first half of a CRC-framed chunk.
func tornChunk() []byte {
	fr := colenc.AppendFrame(nil, appendChunkV2(nil, []Record{
		{Seq: 1, Event: bench.Event{Kind: bench.EventSample, Value: 1, Calls: 1}}}))
	return fr[:len(fr)/2]
}

// TestJournalV2CompressionRatio gates the artifact-size acceptance
// criterion at the format level: a realistic 1000-sample journal must
// be ≥5× smaller in v2 than in v1.
func TestJournalV2CompressionRatio(t *testing.T) {
	evs := journalEvents(1000)
	v1 := encodeV1(t, recordsOf(evs))
	v2 := readFile(t, filepath.Join(writeJournal(t, 0, evs), JournalFile))
	if len(v2)*5 > len(v1) {
		t.Fatalf("v2 journal %d bytes vs v1 %d bytes: ratio %.2f < 5",
			len(v2), len(v1), float64(len(v1))/float64(len(v2)))
	}
	t.Logf("1000-sample journal: v1 %d bytes, v2 %d bytes (%.1f×, %.1f bytes/record)",
		len(v1), len(v2), float64(len(v1))/float64(len(v2)), float64(len(v2))/float64(len(evs)))
}

// TestJournalRecordFailureRecovery shows why a failed seal must rewind
// (TestJournalV2SealFailureRetry covers the rewind itself): a writer
// that left a torn fragment mid-file, or advanced seq past the failed
// record, would have every later record dropped as torn tail on replay.
func TestJournalRecordFailureRecovery(t *testing.T) {
	ev := func(i int) bench.Event {
		return bench.Event{Kind: bench.EventSample, Value: float64(i), Calls: i}
	}

	// What a writer without the rewind would leave: the half-written
	// fragment stays in the file and the next append lands after it, or
	// seq advances past the failed record. Both corruptions cascade —
	// every record after the fault is dropped as torn tail. The v1 line
	// layout makes the fragments easy to cut by hand; v2 chunks cascade
	// the same way (TestJournalV2TornAtEveryOffset).
	t.Run("old-behavior-cascades", func(t *testing.T) {
		recs := recordsOf([]bench.Event{ev(1), ev(2), ev(3), ev(4)})
		base := encodeV1(t, recs[:2])
		rec3 := encodeV1(t, recs[2:3])
		rec4 := encodeV1(t, recs[3:4])

		// Torn fragment mid-file: half of record 3's line, then record 4
		// written whole (as a post-error retry loop would have done).
		torn := append(append(append([]byte(nil), base...), rec3[:len(rec3)/2]...), rec4...)
		if st := Replay(torn); len(st.Records) != 2 || !st.Torn {
			t.Fatalf("mid-file fragment: records=%d torn=%v — expected cascade", len(st.Records), st.Torn)
		}

		// Seq advanced past the failure: record 3 never landed but the
		// writer's counter moved on, so the next append carries seq 4.
		gap := append(append([]byte(nil), base...), rec4...)
		if st := Replay(gap); len(st.Records) != 2 || !st.Torn {
			t.Fatalf("seq gap: records=%d torn=%v — expected cascade", len(st.Records), st.Torn)
		}
	})
}

// TestJournalCloseReportsBrokenLatch: when a failed seal's rewind
// cannot truncate the torn fragment, the journal latches broken and
// Close must say so. Sealing the pending records on Close would append
// them past the fragment, where Replay drops them as a torn tail — a
// silent loss of accepted records.
func TestJournalCloseReportsBrokenLatch(t *testing.T) {
	j, dir := createJournal(t)
	ev := bench.Event{Kind: bench.EventSample, Value: 1, Calls: 1}
	if err := j.Record(ev); err != nil {
		t.Fatal(err)
	}
	prevW, prevT := journalWrite, truncateFile
	journalWrite = func(f *os.File, b []byte) (int, error) {
		n, _ := f.Write(b[:len(b)/2])
		return n, os.ErrDeadlineExceeded
	}
	truncateFile = func(*os.File, int64) error { return os.ErrPermission }
	err := j.Flush()
	journalWrite, truncateFile = prevW, prevT
	if err == nil {
		t.Fatal("faulted seal reported success")
	}
	if err := j.Record(ev); !errors.Is(err, os.ErrPermission) {
		t.Fatalf("Record on a broken journal: err = %v, want the latched rewind failure", err)
	}
	if err := j.Close(); !errors.Is(err, os.ErrPermission) {
		t.Fatalf("Close on a broken journal: err = %v, want the latched rewind failure", err)
	}
	if _, st, err := Load(dir); err != nil || len(st.Records) != 0 || !st.Torn {
		t.Fatalf("journal after a broken close: records=%d torn=%v err=%v, want the torn fragment only",
			len(st.Records), st.Torn, err)
	}
}

// TestJournalV2SealFailureRetry: an injected write or fsync fault in a
// seal must leave the journal fully recoverable — the file rewound to
// the last durable offset, the accepted records kept pending — so a
// later Flush (or Close) lands them exactly once: nothing accepted is
// lost to a transient error, and no seq is written twice.
func TestJournalV2SealFailureRetry(t *testing.T) {
	ev := func(i int) bench.Event {
		return bench.Event{Kind: bench.EventSample, Value: float64(i), Calls: i}
	}
	for _, mode := range []string{"write", "fsync"} {
		t.Run(mode, func(t *testing.T) {
			j, dir := createJournal(t)
			defer j.Close()
			for i := 1; i <= 2; i++ {
				if err := j.Record(ev(i)); err != nil {
					t.Fatal(err)
				}
				if i == 1 {
					if err := j.Flush(); err != nil {
						t.Fatal(err)
					}
				}
			}
			prevW, prevS := journalWrite, fsyncFile
			if mode == "write" {
				// A short write is the realistic disk-full shape: some
				// bytes land, then the error.
				journalWrite = func(f *os.File, b []byte) (int, error) {
					n, _ := f.Write(b[:len(b)/3])
					return n, os.ErrDeadlineExceeded
				}
			} else {
				// The bytes land, the fsync fails: the chunk is written
				// but not durable, so it must be rewound too.
				fsyncFile = func(*os.File) error { return os.ErrDeadlineExceeded }
			}
			err := j.Flush()
			journalWrite, fsyncFile = prevW, prevS
			if err == nil {
				t.Fatal("faulted seal reported success")
			}
			if err := j.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := j.Record(ev(3)); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			_, st, err := Load(dir)
			if err != nil {
				t.Fatal(err)
			}
			if st.Torn || len(st.Records) != 3 {
				t.Fatalf("after retry: torn=%v records=%d, want 3 clean", st.Torn, len(st.Records))
			}
			for i, r := range st.Records {
				if r.Event != ev(i+1) {
					t.Fatalf("record %d = %+v", i, r.Event)
				}
			}
		})
	}
}

// TestRunResumeBitIdenticalAcrossFormats is the cross-format acceptance
// test: the same interrupted campaign resumes to bit-identical samples
// whether its journal was left as v2 — having lost its last chunk to a
// crash, the group-commit window — or as v1, which resume refuses until
// ConvertJournal has rewritten it.
func TestRunResumeBitIdenticalAcrossFormats(t *testing.T) {
	const seed = 5
	cfg := testConfig{System: "quiet", Samples: 20}
	want, err := bench.RunErr(testPlan(), measureFrom(seed))
	if err != nil {
		t.Fatal(err)
	}

	for _, format := range []Format{FormatJSONL, FormatV2} {
		t.Run(format.String(), func(t *testing.T) {
			dir := t.TempDir()
			m := testManifest(t, seed, cfg, nil)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			inner := measureFrom(seed)
			calls := 0
			res, err := Run(ctx, dir, m, testPlan(), func() (float64, error) {
				if calls++; calls == 31 {
					cancel()
				}
				return inner()
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Stop != bench.StopInterrupted {
				t.Fatalf("Stop = %q, want interrupted", res.Stop)
			}
			path := filepath.Join(dir, JournalFile)
			data := readFile(t, path)
			st := Replay(data)
			if st.Torn || len(st.Records) == 0 {
				t.Fatalf("setup: torn=%v records=%d", st.Torn, len(st.Records))
			}

			if format == FormatV2 {
				// Simulate the OS crash the group-commit trade permits:
				// cut mid-way into the final sealed chunk (standing in for
				// an unsealed tail that never reached disk). Resume
				// re-measures it.
				if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
					t.Fatal(err)
				}
			} else {
				writeV1Journal(t, dir, st.Records)
				if _, _, err := Resume(context.Background(), dir, m, testPlan(),
					measureFrom(seed), ResumeOptions{}); err == nil || !strings.Contains(err.Error(), "scibench convert") {
					t.Fatalf("resume of a v1 journal: err = %v, want a refusal naming scibench convert", err)
				}
				if _, err := ConvertJournal(dir); err != nil {
					t.Fatal(err)
				}
			}

			got, info, err := Resume(context.Background(), dir, m, testPlan(),
				measureFrom(seed), ResumeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if wantTorn := format == FormatV2; info.Torn != wantTorn {
				t.Errorf("resume reported torn=%v, want %v", info.Torn, wantTorn)
			}
			if len(got.Raw) != len(want.Raw) {
				t.Fatalf("resumed n=%d, uninterrupted n=%d", len(got.Raw), len(want.Raw))
			}
			for i := range got.Raw {
				if math.Float64bits(got.Raw[i]) != math.Float64bits(want.Raw[i]) {
					t.Fatalf("sample %d diverged", i)
				}
			}
			_, final, err := Load(dir)
			if err != nil {
				t.Fatal(err)
			}
			if xs := final.Samples(); len(xs) != len(want.Raw) {
				t.Errorf("final journal has %d samples, want %d", len(xs), len(want.Raw))
			}
			if final.Format != FormatV2 {
				t.Errorf("final journal format %v, want v2", final.Format)
			}
		})
	}
}

// TestConvertJournal rewrites v1 journals as v2 with record equality,
// leaves v2 journals untouched, drops (and reports) a torn v1 tail, and
// proves a converted campaign resumes bit-identically.
func TestConvertJournal(t *testing.T) {
	evs := journalEvents(150)

	t.Run("round-trip", func(t *testing.T) {
		// A natively written v2 journal, re-encoded as v1 and converted
		// back, is byte-identical: conversion writes exactly what the
		// journal writer would have.
		dir := writeJournal(t, 0, evs)
		native := readFile(t, filepath.Join(dir, JournalFile))
		writeV1Journal(t, dir, recordsOf(evs))

		info, err := ConvertJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		if info.From != FormatJSONL || info.Torn || info.Records != len(evs) {
			t.Fatalf("info = %+v", info)
		}
		if info.NewBytes*2 > info.OldBytes {
			t.Fatalf("conversion barely shrank: %d → %d", info.OldBytes, info.NewBytes)
		}
		if back := readFile(t, filepath.Join(dir, JournalFile)); !bytes.Equal(back, native) {
			t.Fatalf("v2→v1→v2 not byte-identical: %d vs %d bytes", len(back), len(native))
		}

		// Idempotent: a v2 journal is left as it is.
		again, err := ConvertJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		if again.From != FormatV2 || again.OldBytes != again.NewBytes {
			t.Fatalf("idempotent convert: %+v", again)
		}
	})

	t.Run("drops-torn-v1-tail", func(t *testing.T) {
		dir := writeJournal(t, 0, nil)
		writeV1Journal(t, dir, recordsOf(evs))
		path := filepath.Join(dir, JournalFile)
		data := readFile(t, path)
		if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
			t.Fatal(err)
		}
		info, err := ConvertJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		lastLine := int64(len(data) - 1 - bytes.LastIndexByte(data[:len(data)-1], '\n'))
		if !info.Torn || info.Records != len(evs)-1 ||
			info.OldBytes != int64(len(data)-5) || info.DroppedBytes != lastLine-5 {
			t.Fatalf("info = %+v, want the torn last record (%d bytes) reported and dropped", info, lastLine-5)
		}
		if _, st, err := Load(dir); err != nil || st.Torn || st.Format != FormatV2 || len(st.Records) != len(evs)-1 {
			t.Fatalf("after convert: %+v err=%v", st, err)
		}
		if kept := readFile(t, filepath.Join(dir, TornKeptFile)); !bytes.Equal(kept, data[:len(data)-5]) {
			t.Fatal("the torn v1 journal was not kept")
		}

		// A torn v2 tail is not convert's to drop: Open adjudicates it.
		torn := append(readFile(t, path), tornChunk()...)
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ConvertJournal(dir); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(readFile(t, path), torn) {
			t.Fatal("convert modified a torn v2 journal")
		}
	})

	t.Run("reports-mid-file-bit-flip", func(t *testing.T) {
		// v1 replay stops at the first bad line, so a flip in record 10
		// drops every later record too; the report must say so.
		dir := writeJournal(t, 0, nil)
		writeV1Journal(t, dir, recordsOf(evs))
		path := filepath.Join(dir, JournalFile)
		data := readFile(t, path)
		off := 0
		for i := 0; i < 9; i++ {
			off += bytes.IndexByte(data[off:], '\n') + 1
		}
		data[off+20] ^= 0x01
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		info, err := ConvertJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		if !info.Torn || info.Records != 9 || info.DroppedBytes != int64(len(data)-off) {
			t.Fatalf("info = %+v, want 9 records kept and %d bytes dropped", info, len(data)-off)
		}
		if kept := readFile(t, filepath.Join(dir, TornKeptFile)); !bytes.Equal(kept, data) {
			t.Fatal("the corrupt v1 journal was not kept")
		}
	})

	t.Run("resume-after-convert", func(t *testing.T) {
		const seed = 5
		want, err := bench.RunErr(testPlan(), measureFrom(seed))
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		m := testManifest(t, seed, testConfig{System: "quiet", Samples: 20}, nil)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		inner := measureFrom(seed)
		calls := 0
		if _, err := Run(ctx, dir, m, testPlan(), func() (float64, error) {
			if calls++; calls == 31 {
				cancel()
			}
			return inner()
		}); err != nil {
			t.Fatal(err)
		}
		_, st, err := Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		writeV1Journal(t, dir, st.Records)
		if _, err := ConvertJournal(dir); err != nil {
			t.Fatal(err)
		}
		got, _, err := Resume(context.Background(), dir, m, testPlan(),
			measureFrom(seed), ResumeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Raw) != len(want.Raw) {
			t.Fatalf("resumed n=%d, want %d", len(got.Raw), len(want.Raw))
		}
		for i := range got.Raw {
			if math.Float64bits(got.Raw[i]) != math.Float64bits(want.Raw[i]) {
				t.Fatalf("sample %d diverged after convert", i)
			}
		}
	})
}
