// Benchmarks of the campaign journal: append throughput (the
// per-observation durability cost a campaign pays) and replay
// throughput (the recovery/merge cost) of both encodings replay reads.
// Campaigns write v2, chunked delta-encoded columns with one fsync per
// 64-record chunk; the group-commit amortization is the point, so the
// append benchmark fsyncs as campaigns do. v1, one CRC-framed JSON line
// per record, is read-only; its replay fixture is encoded here.
package scibench_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/campaign/v1fixture"
	"repro/internal/rules"
)

// benchManifest is a minimal valid manifest for journal benchmarks.
func benchManifest(b *testing.B) campaign.Manifest {
	b.Helper()
	m, err := campaign.NewManifest("bench", 1, map[string]int{"samples": 1}, nil,
		rules.Environment{})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// benchEvent is the steady-state record shape: monotone sample values
// with occasional retries, matching a real collection stream.
func benchEvent(i int) bench.Event {
	if i%50 == 49 {
		return bench.Event{Kind: bench.EventRetry}
	}
	return bench.Event{
		Kind:  bench.EventSample,
		Value: 1800.0 + float64(i%17)*0.25,
		Calls: 1,
	}
}

// BenchmarkJournalAppendV2 is the chunked group-commit append path.
func BenchmarkJournalAppendV2(b *testing.B) {
	dir := b.TempDir()
	j, err := campaign.Create(dir, benchManifest(b))
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := j.Record(benchEvent(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := j.Flush(); err != nil {
		b.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(dir, campaign.JournalFile)); err == nil && b.N > 0 {
		b.ReportMetric(float64(fi.Size())/float64(b.N), "bytes/record")
	}
}

// replayRecords is the size of the replay benchmarks' journal.
const replayRecords = 4096

// v1Journal encodes the replay fixture in the read-only v1 layout.
func v1Journal(b *testing.B) []byte {
	recs := make([]campaign.Record, replayRecords)
	for i := range recs {
		recs[i] = campaign.Record{Seq: i + 1, Event: benchEvent(i)}
	}
	out, err := v1fixture.Encode(recs)
	if err != nil {
		b.Fatal(err)
	}
	return out
}

// v2Journal is the same fixture as the journal writer lays it down,
// produced by converting the v1 fixture in a campaign directory.
func v2Journal(b *testing.B) []byte {
	dir := b.TempDir()
	j, err := campaign.Create(dir, benchManifest(b))
	if err != nil {
		b.Fatal(err)
	}
	if err := j.Close(); err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(dir, campaign.JournalFile)
	if err := os.WriteFile(path, v1Journal(b), 0o644); err != nil {
		b.Fatal(err)
	}
	if _, err := campaign.ConvertJournal(dir); err != nil {
		b.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		b.Fatal(err)
	}
	return data
}

func benchmarkJournalReplay(b *testing.B, data []byte) {
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := campaign.Replay(data)
		if len(st.Records) != replayRecords || st.Torn {
			b.Fatalf("replay: %d records, torn=%v", len(st.Records), st.Torn)
		}
	}
}

// BenchmarkJournalReplayV1 replays a 4096-record JSONL journal.
func BenchmarkJournalReplayV1(b *testing.B) {
	benchmarkJournalReplay(b, v1Journal(b))
}

// BenchmarkJournalReplayV2 replays the same stream as chunked binary.
func BenchmarkJournalReplayV2(b *testing.B) {
	benchmarkJournalReplay(b, v2Journal(b))
}
