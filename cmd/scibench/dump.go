// The human-readable view of the binary artifacts: `scibench dump`
// prints a campaign journal (v2, or a read-only v1 one) or a telemetry
// trace.bin as JSON lines — one record or span per line.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	scibench "repro"
)

func cmdDump(args []string) error {
	fs := flag.NewFlagSet("dump", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: scibench dump <campaign-dir | journal.jsonl | trace.bin>")
	}
	path := fs.Arg(0)
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	switch {
	case fi.IsDir():
		return dumpJournal(path)
	case filepath.Base(path) == "journal.jsonl":
		return dumpJournal(filepath.Dir(path))
	}
	return dumpTrace(path)
}

// dumpJournal prints the verified records of the campaign in dir.
func dumpJournal(dir string) error {
	_, st, err := scibench.LoadCampaign(dir)
	if err != nil {
		return err
	}
	return writeLines(st.Records, st.Torn)
}

// dumpTrace prints the verified spans of the binary trace at path.
func dumpTrace(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	spans, torn := scibench.ReadBinaryTrace(data)
	if len(spans) == 0 && torn {
		return fmt.Errorf("%s holds no verified spans: not a trace.bin, or torn before its first chunk", path)
	}
	return writeLines(spans, torn)
}

// writeLines prints items to stdout as JSON lines and notes a dropped
// torn tail on stderr.
func writeLines[T any](items []T, torn bool) error {
	w := bufio.NewWriter(os.Stdout)
	enc := json.NewEncoder(w)
	for _, it := range items {
		if err := enc.Encode(it); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if torn {
		fmt.Fprintln(os.Stderr, "torn tail dropped (crash mid-append): only the verified prefix was printed")
	}
	return nil
}
