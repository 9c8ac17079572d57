// Benchmarks of the campaign journal: append throughput (the
// per-observation durability cost a campaign pays) and replay
// throughput (the recovery/merge cost). Campaigns write v2, chunked
// delta-encoded columns with one fsync per 64-record chunk; the
// group-commit amortization is the point, so the append benchmark
// fsyncs as campaigns do.
package scibench_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench"
	"repro/internal/campaign"
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

// replayRecords is the size of the replay benchmark's journal.
const replayRecords = 4096

// v2Journal is the replay fixture as the journal writer lays it down:
// replayRecords events through Create, Record and Close.
func v2Journal(b *testing.B) []byte {
	dir := b.TempDir()
	j, err := campaign.Create(dir, benchManifest(b))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < replayRecords; i++ {
		if err := j.Record(benchEvent(i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		b.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, campaign.JournalFile))
	if err != nil {
		b.Fatal(err)
	}
	return data
}

// BenchmarkJournalReplayV2 replays a 4096-record chunked binary journal.
func BenchmarkJournalReplayV2(b *testing.B) {
	data := v2Journal(b)
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
