package campaign

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench"
	"repro/internal/colenc"
)

// fuzzEvents is an n-event stream cycling through every event kind.
func fuzzEvents(n int) []bench.Event {
	kinds := []bench.EventKind{
		bench.EventWarmup, bench.EventSample, bench.EventRetry,
		bench.EventPanic, bench.EventLoss,
	}
	evs := make([]bench.Event, n)
	for i := range evs {
		evs[i] = bench.Event{Kind: kinds[(i+1)%len(kinds)], Calls: i + 1}
		if evs[i].Kind == bench.EventSample {
			evs[i].Value = float64(i+1) * 1.5
		}
	}
	return evs
}

// validJournalV2 journals n records through the writer, sealing a chunk
// with Flush every flushEvery records, and returns the journal bytes.
func validJournalV2(tb testing.TB, n, flushEvery int) []byte {
	tb.Helper()
	dir := tb.TempDir()
	j, err := Create(dir, Manifest{Version: FormatVersion, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	for i, ev := range fuzzEvents(n) {
		if err := j.Record(ev); err != nil {
			tb.Fatal(err)
		}
		if (i+1)%flushEvery == 0 {
			if err := j.Flush(); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if err := j.Close(); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, JournalFile))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// v1Line is one line of the retired v1 JSONL journal: input this build
// must refuse, never read as a journal.
const v1Line = `{"crc":0,"rec":{"seq":1,"event":{"kind":"sample","value":1,"calls":1}}}` + "\n"

// FuzzReplay throws arbitrary bytes — seeded with valid journals, torn
// writes, bit flips, truncations, and foreign bytes (the v1 JSONL corpus
// under testdata among them) — at the journal reader. The reader must
// never panic, never invent records (dense sequence numbers,
// CRC-verified), and must be idempotent: re-reading the verified prefix
// yields exactly the same records. Input that is neither empty nor v2
// yields no records, and Load refuses it with ErrNotJournal.
func FuzzReplay(f *testing.F) {
	valid := validJournalV2(f, 6, 2)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("\n\n\n"))
	f.Add([]byte(v1Line))
	f.Add([]byte(`{"crc":123,"rec":{"seq":`))
	// A chunk boundary followed by the start of a replayed first chunk.
	f.Add(append(append([]byte(nil), valid...), valid[len(magicV2):len(magicV2)+5]...))
	// Truncations and a bit flip as explicit seeds; the fuzzer mutates
	// from here.
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-1])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	// Shard-merge corpus: the journal shapes a SIGKILLed executor leaves
	// behind for the merge reader — a second unit's journal appended
	// after a clean one (two dense seq runs: the second must be dropped
	// as a tear, never silently concatenated into one campaign), and a
	// clean journal whose tail died mid-fsync.
	other := validJournalV2(f, 3, 1)
	f.Add(append(append([]byte(nil), valid...), other...))
	f.Add(append(append([]byte(nil), valid...), other[len(magicV2):len(other)/2]...))
	// A torn header, and hybrids that can only arise from corruption.
	f.Add(magicV2[:5])
	f.Add(append([]byte(v1Line), valid...))
	f.Add(append(append([]byte(nil), valid...), v1Line...))

	f.Fuzz(func(t *testing.T, data []byte) {
		st := Replay(data)
		if st.ValidBytes < 0 || st.ValidBytes > int64(len(data)) {
			t.Fatalf("ValidBytes %d outside [0, %d]", st.ValidBytes, len(data))
		}
		for i, r := range st.Records {
			if r.Seq != i+1 {
				t.Fatalf("non-dense seq %d at index %d", r.Seq, i)
			}
		}
		// Idempotence over the verified prefix: same records, no tear.
		again := Replay(data[:st.ValidBytes])
		if again.Torn || len(again.Records) != len(st.Records) {
			t.Fatalf("verified prefix re-replays torn=%v n=%d, want clean n=%d",
				again.Torn, len(again.Records), len(st.Records))
		}
		for i := range again.Records {
			if again.Records[i] != st.Records[i] {
				t.Fatalf("record %d changed across replays", i)
			}
		}
		// The event stream must fold without panics in bench, whatever
		// the journal contained.
		_ = st.Events()
		_ = st.Samples()
		if isV2(data) {
			return
		}
		if len(st.Records) != 0 || st.ValidBytes != 0 {
			t.Fatalf("foreign bytes replayed to %d records, ValidBytes %d", len(st.Records), st.ValidBytes)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, ManifestFile), []byte(`{"version":1}`), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, JournalFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Load(dir); !errors.Is(err, ErrNotJournal) {
			t.Fatalf("Load of foreign bytes: err = %v, want ErrNotJournal", err)
		}
	})
}

// FuzzJournalV2 throws arbitrary bytes — seeded with valid v2 journals
// at several chunk widths, torn headers, truncations, bit flips,
// spliced journals, and handcrafted hostile chunks (oversized counts,
// non-dense firstSeq) — at the chunked binary reader. The invariants
// are FuzzReplay's contract plus the boundary discipline: never
// panic, never invent records, never allocate unboundedly from a lied
// count field, ValidBytes lands on header/chunk boundaries only, and
// the verified prefix re-replays identically.
func FuzzJournalV2(f *testing.F) {
	small := validJournalV2(f, 6, 2)
	big := validJournalV2(f, 40, 16)
	f.Add(small)
	f.Add(big)
	f.Add([]byte{})
	f.Add(append([]byte(nil), magicV2...)) // bare header
	f.Add(magicV2[:5])                     // torn header
	f.Add(append(append([]byte(nil), magicV2...), 0xFF, 0xFF, 0xFF))
	if len(small) > 10 {
		f.Add(small[:len(small)/2])
		f.Add(small[:len(small)-1])
		flipped := append([]byte(nil), big...)
		flipped[len(flipped)/3] ^= 0x40
		f.Add(flipped)
	}
	// Two journals spliced (the SIGKILLed-executor shape): the second
	// journal's chunks restart at seq 1 and must be dropped as a tear.
	f.Add(append(append([]byte(nil), small...), small...))
	f.Add(append(append([]byte(nil), small...), big[len(magicV2):]...))
	// A CRC-valid frame whose payload lies: count far beyond the payload.
	hostile := append([]byte(nil), magicV2...)
	payload := colenc.AppendUvarint(nil, 1)        // firstSeq
	payload = colenc.AppendUvarint(payload, 1<<40) // count: 1T records
	hostile = colenc.AppendFrame(hostile, payload)
	f.Add(hostile)
	// A CRC-valid frame whose firstSeq is not the dense continuation.
	gap := append([]byte(nil), magicV2...)
	gp := colenc.AppendUvarint(nil, 7) // firstSeq 7 with 0 prior records
	gp = colenc.AppendUvarint(gp, 1)
	gp = append(gp, kindSample)
	gp = colenc.AppendVarint(gp, 1)
	gp = colenc.AppendFloatDelta(gp, 0, 0x3FF0000000000000)
	gap = colenc.AppendFrame(gap, gp)
	f.Add(gap)

	f.Fuzz(func(t *testing.T, data []byte) {
		st := Replay(data)
		if st.ValidBytes < 0 || st.ValidBytes > int64(len(data)) {
			t.Fatalf("ValidBytes %d outside [0, %d]", st.ValidBytes, len(data))
		}
		if st.ValidBytes != 0 && st.ValidBytes < int64(len(magicV2)) {
			t.Fatalf("ValidBytes %d inside the header", st.ValidBytes)
		}
		for i, r := range st.Records {
			if r.Seq != i+1 {
				t.Fatalf("non-dense seq %d at index %d", r.Seq, i)
			}
		}
		again := Replay(data[:st.ValidBytes])
		if again.Torn || len(again.Records) != len(st.Records) {
			t.Fatalf("verified prefix re-replays torn=%v n=%d, want clean n=%d",
				again.Torn, len(again.Records), len(st.Records))
		}
		for i := range again.Records {
			if again.Records[i] != st.Records[i] {
				t.Fatalf("record %d changed across replays", i)
			}
		}
		_ = st.Events()
		_ = st.Samples()
	})
}

// FuzzManifest throws arbitrary bytes — seeded with standalone and
// shard-sweep-member manifests — at the campaign loader and the drift
// checker. Decoding must never panic; any manifest that decodes at all
// must be drift-free against itself (otherwise shard reassignment would
// refuse to resume work it wrote moments earlier); and the shard merge
// reader must agree with the plain loader on whether dir is a campaign.
func FuzzManifest(f *testing.F) {
	plain, err := json.Marshal(Manifest{
		Version: FormatVersion, Name: "fuzz", Seed: 7,
		ConfigHash: "deadbeef", FaultFingerprint: "feedface",
	})
	if err != nil {
		f.Fatal(err)
	}
	member, err := json.Marshal(Manifest{
		Version: FormatVersion, Name: "fuzz", Seed: 7,
		ConfigHash: "deadbeef", FaultFingerprint: "feedface",
		Sweep: &SweepRef{SweepHash: "0ddba11", UnitID: "u00-cfg-00", Shard: 2},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(plain)
	f.Add(member)
	f.Add([]byte(`{"version":99}`))
	f.Add([]byte(`{"sweep":{"shard":-1}}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{`))
	journal := validJournalV2(f, 3, 1)
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, ManifestFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, JournalFile), journal, 0o644); err != nil {
			t.Fatal(err)
		}
		m, st, err := Load(dir)
		if err != nil {
			// Undecodable manifest: the merge reader must refuse too,
			// not fall back to trusting the journal alone.
			if _, _, _, verr := LoadVerified(dir, Manifest{}); verr == nil {
				t.Fatal("LoadVerified accepted a dir Load refused")
			}
			return
		}
		if len(st.Records) != 3 {
			t.Fatalf("valid journal read back %d records, want 3", len(st.Records))
		}
		// Reflexivity: whatever decoded, it cannot drift from itself.
		if ds := DriftFields(m, m); len(ds) != 0 {
			t.Fatalf("manifest drifts from itself: %+v", ds)
		}
		if _, err := CheckResume(m, m); err != nil {
			t.Fatalf("CheckResume refuses identical manifests: %v", err)
		}
		// And the merge reader, handed the decoded manifest as its
		// expectation, must accept the same directory.
		if _, _, _, err := LoadVerified(dir, m); err != nil {
			t.Fatalf("LoadVerified refuses manifest equal to recorded: %v", err)
		}
	})
}

// FuzzReplayTruncation drives the dedicated torn-write invariant: for a
// valid journal truncated at any offset, replay returns exactly the
// records whose whole chunks survived.
func FuzzReplayTruncation(f *testing.F) {
	valid := validJournalV2(f, 8, 1) // one record per chunk
	chunkEnds := []int{}
	for off := len(magicV2); off < len(valid); {
		_, n, ok := colenc.ReadFrame(valid[off:])
		if !ok {
			f.Fatal("setup: torn chunk in clean journal")
		}
		off += n
		chunkEnds = append(chunkEnds, off)
	}
	f.Add(0)
	f.Add(len(valid) / 2)
	f.Add(len(valid) - 1)
	f.Add(len(valid))
	f.Fuzz(func(t *testing.T, cut int) {
		if cut < 0 || cut > len(valid) {
			t.Skip()
		}
		st := Replay(valid[:cut])
		want := 0
		for _, e := range chunkEnds {
			if cut >= e {
				want++
			}
		}
		if len(st.Records) != want {
			t.Fatalf("cut %d: %d records, want %d", cut, len(st.Records), want)
		}
		if wantTorn := cut != int(st.ValidBytes); st.Torn != wantTorn {
			t.Fatalf("cut %d: torn=%v at ValidBytes %d", cut, st.Torn, st.ValidBytes)
		}
	})
}
