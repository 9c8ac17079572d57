package campaign

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/colenc"
)

// ConvertInfo summarizes a journal conversion.
type ConvertInfo struct {
	// From is the sniffed source format. Only FormatJSONL is rewritten;
	// any other value means the journal was left untouched.
	From Format
	// Records is the number of records carried across.
	Records int
	// Torn reports that the v1 journal ended in a torn or corrupt record:
	// everything from that record on — DroppedBytes bytes, which a
	// mid-file bit flip makes more than one line — was left out of the
	// rewrite, the same tail a resume drops. The original file survives
	// as TornKeptFile next to the new journal.
	Torn         bool
	DroppedBytes int64
	// OldBytes is the source journal's size on disk, dropped tail
	// included; NewBytes the rewritten journal's (equal to OldBytes when
	// no rewrite happened).
	OldBytes, NewBytes int64
}

// TornKeptFile is the name under which ConvertJournal keeps a torn v1
// journal, so the dropped bytes stay available for inspection.
const TornKeptFile = JournalFile + ".v1"

// encodeJournal serializes records as a v2 journal from scratch — the
// exact bytes a fresh journal writing these records would hold: full
// chunks of chunkRecords records, then one final short chunk.
func encodeJournal(recs []Record) []byte {
	out := append([]byte(nil), magicV2...)
	for len(recs) > 0 {
		n := min(chunkRecords, len(recs))
		out = colenc.AppendFrame(out, appendChunkV2(nil, recs[:n]))
		recs = recs[n:]
	}
	return out
}

// ConvertJournal rewrites a v1 campaign journal in dir as v2, the only
// format Open appends to. A torn v1 tail is dropped, the same
// adjudication a resume makes; ConvertInfo reports how many bytes went,
// and the original is kept as TornKeptFile. The rewrite is
// verified (re-replayed and compared record-for-record against the
// source) before being published atomically and durably over the old
// journal, so a crash at any point leaves either the old or the new
// journal intact, never a hybrid. A journal that is not v1 — v2 or
// still empty — is left untouched.
func ConvertJournal(dir string) (ConvertInfo, error) {
	_, st, err := Load(dir)
	if err != nil {
		return ConvertInfo{}, err
	}
	path := filepath.Join(dir, JournalFile)
	fi, err := os.Stat(path)
	if err != nil {
		return ConvertInfo{}, fmt.Errorf("campaign: %w", err)
	}
	info := ConvertInfo{From: st.Format, Records: len(st.Records), OldBytes: fi.Size()}
	if st.Format != FormatJSONL {
		info.NewBytes = fi.Size()
		return info, nil
	}
	info.Torn = st.Torn
	info.DroppedBytes = fi.Size() - st.ValidBytes
	nb := encodeJournal(st.Records)
	// Verify before publishing: the new bytes must replay to exactly
	// the records the old journal held — a conversion is only a
	// conversion if replay cannot tell (beyond the format tag).
	got := Replay(nb)
	if got.Torn || len(got.Records) != len(st.Records) {
		return ConvertInfo{}, fmt.Errorf("campaign: conversion self-check failed (torn=%v records=%d want %d)", got.Torn, len(got.Records), len(st.Records))
	}
	for i, r := range got.Records {
		if r.Seq != st.Records[i].Seq || r.Event != st.Records[i].Event {
			return ConvertInfo{}, fmt.Errorf("campaign: conversion self-check failed at record %d", i+1)
		}
	}
	tmp := path + ".convert"
	if err := writeFileDurable(tmp, nb); err != nil {
		return ConvertInfo{}, fmt.Errorf("campaign: %w", err)
	}
	if st.Torn {
		// A second name for the old file: the rename below then replaces
		// the journal without destroying the bytes it drops.
		if err := os.Link(path, filepath.Join(dir, TornKeptFile)); err != nil {
			return ConvertInfo{}, fmt.Errorf("campaign: keeping the torn journal: %w", err)
		}
	}
	if err := renameFile(tmp, path); err != nil {
		return ConvertInfo{}, fmt.Errorf("campaign: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return ConvertInfo{}, fmt.Errorf("campaign: syncing directory: %w", err)
	}
	info.NewBytes = int64(len(nb))
	return info, nil
}
