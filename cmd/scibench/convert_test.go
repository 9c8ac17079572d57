package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	scibench "repro"
	"repro/internal/campaign/v1fixture"
)

// v2Args is the fixed configuration of the journal durability test:
// enough samples that the chunked journal seals several 64-record
// chunks mid-campaign, paced so a SIGKILL lands between seals.
func v2Args(dir string, extra ...string) []string {
	base := []string{"-system", "daint", "-samples", "200", "-relerr", "0.0001",
		"-seed", "17", "-throttle", "5ms", "-dir", dir}
	return append(base, extra...)
}

// rewriteAsV1 replaces the journal of the campaign in dir with its
// verified records in the read-only v1 layout, which is what a campaign
// journaled before v2 became the only writer left on disk.
func rewriteAsV1(t *testing.T, dir string) {
	t.Helper()
	_, st, err := scibench.LoadCampaign(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v1fixture.Write(filepath.Join(dir, "journal.jsonl"), st.Records); err != nil {
		t.Fatal(err)
	}
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCampaignV2SIGKILLResumeByteIdentity drives the journal's crash
// story against the real binary: SIGKILL a campaign after at least one
// chunk has sealed (losing the unsealed tail — group commit's durability
// trade), resume it from the sealed prefix, and require the final
// analysis byte-identical to an uninterrupted run. A copy of the killed
// campaign with its journal rewritten as v1 must be printed by
// `scibench dump`, refused by `scibench resume` with a pointer to
// `scibench convert`, and after the conversion resume to the same bytes.
func TestCampaignV2SIGKILLResumeByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("drives real processes with wall-clock pacing")
	}

	// Reference: an uninterrupted run. Every copy below keeps the same
	// basename, so the manifests (and therefore the reports) describe the
	// same campaign.
	ref := filepath.Join(t.TempDir(), "camp")
	refOut, err := exec.Command(binPath, append([]string{"campaign"}, v2Args(ref)...)...).CombinedOutput()
	if c := exitCode(t, err); c != 0 {
		t.Fatalf("campaign exited %d; output:\n%s", c, refOut)
	}
	want := resultLine(t, string(refOut))
	if _, st, err := scibench.LoadCampaign(ref); err != nil || st.Format.String() != "v2" {
		t.Fatalf("campaign journal: format=%v err=%v, want v2", st.Format, err)
	}

	// The victim: SIGKILL once the journal has grown past the 8-byte
	// header, i.e. at least one CRC-framed chunk is durable.
	camp := filepath.Join(t.TempDir(), "camp")
	victim := exec.Command(binPath, append([]string{"campaign"}, v2Args(camp)...)...)
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(camp, "journal.jsonl")
	deadline := time.Now().Add(20 * time.Second)
	for {
		if fi, err := os.Stat(journal); err == nil && fi.Size() > 8 {
			break
		}
		if time.Now().After(deadline) {
			victim.Process.Kill()
			t.Fatal("journal never sealed a chunk")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := victim.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = victim.Wait()

	// The sealed prefix must load as a valid v2 campaign.
	_, st, err := scibench.LoadCampaign(camp)
	if err != nil {
		t.Fatalf("killed campaign not loadable: %v", err)
	}
	if st.Format.String() != "v2" {
		t.Fatalf("killed campaign format = %v, want v2", st.Format)
	}
	if len(st.Records) == 0 {
		t.Fatal("no records recovered from the sealed chunks")
	}
	old := filepath.Join(t.TempDir(), "camp")
	copyDir(t, camp, old)

	resumed, err := exec.Command(binPath, "resume", camp).CombinedOutput()
	if c := exitCode(t, err); c != 0 {
		t.Fatalf("resume exited %d; output:\n%s", c, resumed)
	}
	if !strings.Contains(string(resumed), "recovered") {
		t.Errorf("resume did not report recovery:\n%s", resumed)
	}
	if got := resultLine(t, string(resumed)); got != want {
		t.Errorf("resumed analysis differs:\n  want: %s\n  got:  %s", want, got)
	}

	// The same interrupted campaign as a v1 journal: readable, but
	// resume refuses to append to it until it is converted.
	rewriteAsV1(t, old)
	dump, err := exec.Command(binPath, "dump", old).Output()
	if err != nil {
		t.Fatalf("dump of a v1 journal: %v", err)
	}
	if lines := strings.Count(string(dump), "\n"); lines != len(st.Records) {
		t.Errorf("dump printed %d lines, want %d records", lines, len(st.Records))
	}
	v1Bytes := fileSize(t, filepath.Join(old, "journal.jsonl"))
	out, err := exec.Command(binPath, "resume", old).CombinedOutput()
	if c := exitCode(t, err); c != 1 || !strings.Contains(string(out), "scibench convert "+old) {
		t.Fatalf("resume of a v1 journal exited %d, want 1 naming scibench convert:\n%s", c, out)
	}
	if got := fileSize(t, filepath.Join(old, "journal.jsonl")); got != v1Bytes {
		t.Fatalf("refused resume changed the v1 journal: %d → %d bytes", v1Bytes, got)
	}
	// Tear the v1 tail as a crash mid-append would: convert drops the
	// torn record, says how many bytes went and keeps the original.
	if err := os.Truncate(filepath.Join(old, "journal.jsonl"), v1Bytes-5); err != nil {
		t.Fatal(err)
	}
	out, err = exec.Command(binPath, "convert", old).CombinedOutput()
	if c := exitCode(t, err); c != 0 || !strings.Contains(string(out), "converted v1 → v2") {
		t.Fatalf("convert exited %d:\n%s", c, out)
	}
	if !strings.Contains(string(out), "dropped; original kept as "+filepath.Join(old, "journal.jsonl.v1")) {
		t.Errorf("convert did not report the dropped torn tail:\n%s", out)
	}
	if got := fileSize(t, filepath.Join(old, "journal.jsonl.v1")); got != v1Bytes-5 {
		t.Errorf("kept v1 journal has %d bytes, want %d", got, v1Bytes-5)
	}
	if got := fileSize(t, filepath.Join(old, "journal.jsonl")); got >= v1Bytes {
		t.Errorf("v2 journal (%d B) not smaller than v1 (%d B)", got, v1Bytes)
	}
	out, err = exec.Command(binPath, "convert", old).CombinedOutput()
	if c := exitCode(t, err); c != 0 || !strings.Contains(string(out), "nothing to do") {
		t.Fatalf("idempotent convert exited %d:\n%s", c, out)
	}
	resumed, err = exec.Command(binPath, "resume", old).CombinedOutput()
	if c := exitCode(t, err); c != 0 {
		t.Fatalf("resume after convert exited %d; output:\n%s", c, resumed)
	}
	if got := resultLine(t, string(resumed)); got != want {
		t.Errorf("converted-and-resumed analysis differs:\n  want: %s\n  got:  %s", want, got)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestShardedCampaignV2ByteIdentity: `scibench campaign -shards N`
// journals every unit in v2, and the same sweep with every unit journal
// rewritten as v1 still merges to a byte-identical report.
func TestShardedCampaignV2ByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("drives real processes with wall-clock pacing")
	}
	dir := filepath.Join(t.TempDir(), "sweep")
	ref, err := exec.Command(binPath, "campaign", "-dir", dir, "-units", "3", "-samples", "25",
		"-relerr", "0.0001", "-seed", "9", "-shards", "2").Output()
	if err != nil {
		t.Fatalf("sharded campaign: %v", err)
	}
	units, err := filepath.Glob(filepath.Join(dir, "shard-*", "units", "*", "journal.jsonl"))
	if err != nil || len(units) != 3 {
		t.Fatalf("unit journals: %v (err %v), want 3", units, err)
	}
	for _, j := range units {
		_, st, err := scibench.LoadCampaign(filepath.Dir(j))
		if err != nil {
			t.Fatalf("unit %s: %v", j, err)
		}
		if st.Format.String() != "v2" {
			t.Errorf("unit %s journal format = %v, want v2", j, st.Format)
		}
		rewriteAsV1(t, filepath.Dir(j))
	}
	got, err := exec.Command(binPath, "merge", "-dir", dir).Output()
	if err != nil {
		t.Fatalf("merge of v1 unit journals: %v", err)
	}
	if !bytes.Equal(got, ref) {
		t.Errorf("v1 sweep merged to a different report:\n--- v2\n%s\n--- v1\n%s", ref, got)
	}
}

// TestDumpJournalAndTrace: `scibench dump` prints a campaign journal —
// given its directory or its journal file — and a -telemetry trace.bin
// as JSON lines, and refuses a file that is neither.
func TestDumpJournalAndTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("drives real processes")
	}
	camp := filepath.Join(t.TempDir(), "camp")
	if out, err := exec.Command(binPath, "campaign", "-dir", camp, "-samples", "12",
		"-relerr", "0.5", "-seed", "3", "-telemetry", "127.0.0.1:0").CombinedOutput(); err != nil {
		t.Fatalf("campaign: %v\n%s", err, out)
	}
	_, st, err := scibench.LoadCampaign(camp)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{camp, filepath.Join(camp, "journal.jsonl")} {
		out, err := exec.Command(binPath, "dump", path).Output()
		if err != nil {
			t.Fatalf("dump %s: %v", path, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		if len(lines) != len(st.Records) {
			t.Fatalf("dump %s: %d lines, want %d records", path, len(lines), len(st.Records))
		}
		for i, line := range lines {
			var rec struct {
				Seq   int `json:"seq"`
				Event struct {
					Kind string `json:"kind"`
				} `json:"event"`
			}
			if err := json.Unmarshal([]byte(line), &rec); err != nil || rec.Seq != i+1 || rec.Event.Kind == "" {
				t.Fatalf("dump %s line %d = %q (err %v)", path, i, line, err)
			}
		}
	}

	out, err := exec.Command(binPath, "dump", filepath.Join(camp, "trace.bin")).Output()
	if err != nil {
		t.Fatalf("dump trace.bin: %v", err)
	}
	names := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		var sp struct {
			Name string `json:"name"`
		}
		if err := json.Unmarshal([]byte(line), &sp); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		names[sp.Name] = true
	}
	if !names["campaign"] {
		t.Errorf("trace dump has no campaign span: %v", names)
	}

	out, err = exec.Command(binPath, "dump", filepath.Join(camp, "config.json")).CombinedOutput()
	if c := exitCode(t, err); c != 1 || !strings.Contains(string(out), "no verified spans") {
		t.Errorf("dump of a non-trace file exited %d:\n%s", c, out)
	}
}
