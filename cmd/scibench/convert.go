// Journal conversion: the `scibench convert` subcommand rewrites a
// campaign's read-only v1 JSONL journal as the v2 chunked binary
// journal, the only encoding campaigns append to. The conversion is
// atomic (temp file + rename), verified by re-replaying the rewritten
// journal record-for-record against the original, and
// identity-preserving: the campaign resumes bit-for-bit afterwards,
// because the format is storage, not part of the recorded experiment.
package main

import (
	"flag"
	"fmt"
	"path/filepath"

	scibench "repro"
)

func cmdConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	dir := fs.Arg(0)
	if dir == "" || fs.NArg() > 1 {
		return fmt.Errorf("usage: scibench convert <campaign-dir>")
	}
	info, err := scibench.ConvertCampaignJournal(dir)
	if err != nil {
		return err
	}
	if info.From.String() != "v1" {
		fmt.Printf("journal is not v1 (%d record(s), %d bytes) — nothing to do\n",
			info.Records, info.OldBytes)
		return nil
	}
	ratio := 0.0
	if info.NewBytes > 0 {
		ratio = float64(info.OldBytes) / float64(info.NewBytes)
	}
	fmt.Printf("converted v1 → v2: %d record(s), %d → %d bytes (%.1f×), verified by replay\n",
		info.Records, info.OldBytes, info.NewBytes, ratio)
	if info.Torn {
		fmt.Printf("torn or corrupt tail: %d byte(s) after record %d dropped; original kept as %s\n",
			info.DroppedBytes, info.Records, filepath.Join(dir, scibench.CampaignTornKeptFile))
	}
	return nil
}
