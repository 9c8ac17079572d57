package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	scibench "repro"
)

// binPath is the scibench binary built once in TestMain; the campaign
// integration tests drive it as a real process so signal delivery and
// exit codes are tested end to end.
var binPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "scibench-bin")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binPath = filepath.Join(dir, "scibench")
	if out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building scibench: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// campaignArgs is the one fixed configuration every stage of the
// integration test shares; any drift between stages would (correctly)
// be refused. 200 samples span several 64-record journal chunks.
func campaignArgs(dir string) []string {
	return []string{"-system", "daint", "-samples", "200", "-relerr", "0.0001",
		"-seed", "11", "-throttle", "10ms", "-dir", dir}
}

// resultLine extracts the final "result: ..." analysis line.
func resultLine(t *testing.T, out string) string {
	t.Helper()
	line := ""
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "result:") {
			line = l
		}
	}
	if line == "" {
		t.Fatalf("no result line in output:\n%s", out)
	}
	return line
}

func exitCode(t *testing.T, err error) int {
	t.Helper()
	if err == nil {
		return 0
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("process did not exit normally: %v", err)
	}
	return ee.ExitCode()
}

// TestCampaignInterruptResume drives the full durability story against
// the real binary: SIGINT a running campaign, verify the checkpoint,
// refuse a drifted resume, tear the journal's last chunk as a crash
// mid-append would, resume anyway, and check the final analysis is
// identical to an uninterrupted campaign with the same seed.
func TestCampaignInterruptResume(t *testing.T) {
	if testing.Short() {
		t.Skip("drives real processes with wall-clock pacing")
	}
	camp := filepath.Join(t.TempDir(), "camp")

	// Stage 1: start a throttled campaign and SIGINT it mid-collection.
	var out strings.Builder
	cmd := exec.Command(binPath, append([]string{"campaign"}, campaignArgs(camp)...)...)
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(camp, "journal.jsonl")
	deadline := time.Now().Add(15 * time.Second)
	for {
		if fi, err := os.Stat(journal); err == nil && fi.Size() > 8 {
			break // a chunk is durable; interrupt mid-flight
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("journal never grew; output:\n%s", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	if c := exitCode(t, err); c != 3 {
		t.Fatalf("interrupted campaign exited %d, want 3; output:\n%s", c, out.String())
	}
	if !strings.Contains(out.String(), "interrupted") {
		t.Errorf("no interruption notice in output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "scibench resume") {
		t.Errorf("no resume hint in output:\n%s", out.String())
	}

	// The checkpoint must be a loadable campaign with verified records.
	man, st, err := scibench.LoadCampaign(camp)
	if err != nil {
		t.Fatalf("interrupted campaign not loadable: %v", err)
	}
	if man.Seed != 11 {
		t.Errorf("manifest seed = %d, want 11", man.Seed)
	}
	if len(st.Records) == 0 {
		t.Fatal("no records recovered from the interrupted journal")
	}
	if st.Torn {
		t.Error("journal torn after a clean SIGINT checkpoint")
	}

	// Stage 2: a resume whose flags drift from the recorded setup is
	// refused with Rule 9 findings and a nonzero exit.
	drifted, err := exec.Command(binPath, "resume", "-seed", "12", camp).CombinedOutput()
	if c := exitCode(t, err); c != 1 {
		t.Fatalf("drifted resume exited %d, want 1; output:\n%s", c, drifted)
	}
	if !strings.Contains(string(drifted), "REFUSED") {
		t.Errorf("drifted resume not refused:\n%s", drifted)
	}
	if !strings.Contains(string(drifted), "seed") {
		t.Errorf("refusal does not name the drifted field:\n%s", drifted)
	}

	// Stage 3: simulate a crash mid-append on top of the checkpoint —
	// the last sealed chunk cut short, failing its CRC.
	if err := os.Truncate(journal, fileSize(t, journal)-3); err != nil {
		t.Fatal(err)
	}

	// Stage 4: the real resume drops the torn tail and completes.
	resumed, err := exec.Command(binPath, "resume", camp).CombinedOutput()
	if c := exitCode(t, err); c != 0 {
		t.Fatalf("resume exited %d, want 0; output:\n%s", c, resumed)
	}
	if !strings.Contains(string(resumed), "torn tail") {
		t.Errorf("resume did not report the torn tail:\n%s", resumed)
	}
	if !strings.Contains(string(resumed), "recovered") {
		t.Errorf("resume did not report recovery:\n%s", resumed)
	}

	// Stage 5: an uninterrupted campaign with the same seed must land on
	// the exact same analysis (bit-identical retained samples).
	clean := filepath.Join(t.TempDir(), "clean")
	cleanOut, err := exec.Command(binPath, append([]string{"campaign"}, campaignArgs(clean)...)...).CombinedOutput()
	if c := exitCode(t, err); c != 0 {
		t.Fatalf("clean campaign exited %d; output:\n%s", c, cleanOut)
	}
	got := resultLine(t, string(resumed))
	want := resultLine(t, string(cleanOut))
	if got != want {
		t.Errorf("resumed analysis differs from uninterrupted run:\n  resumed: %s\n  clean:   %s", got, want)
	}
}

// killSweepArgs is the sweep the SIGKILL tests interrupt: 4 units of
// 100 samples + 3 warmups, so each unit journal is a sealed 64-record
// chunk followed by a 39-record final chunk, paced so the kill can land
// between the two seals.
func killSweepArgs(dir string) []string {
	return []string{"-dir", dir, "-units", "4", "-samples", "100",
		"-relerr", "0.0001", "-seed", "5", "-throttle", "5ms"}
}

// resumedFromSeal matches an executor's progress line for a unit it
// resumed with journaled samples recovered.
var resumedFromSeal = regexp.MustCompile(`unit (\S+): resumed \(([1-9][0-9]*) prior samples`)

// midUnit reports whether some unit of the shard in shardDir has a
// sealed journal chunk but no completion sentinel yet.
func midUnit(shardDir string) bool {
	units, _ := filepath.Glob(filepath.Join(shardDir, "units", "*"))
	for _, u := range units {
		if _, err := os.Stat(filepath.Join(u, "result.json")); err == nil {
			continue
		}
		if _, st, err := scibench.LoadCampaign(u); err == nil && len(st.Records) > 0 {
			return true
		}
	}
	return false
}

// TestShardedCampaignSIGKILLByteIdentity drives the distributed flow
// against the real binary: build a 2-shard sweep with `scibench shard`,
// SIGKILL one executor mid-unit (the crash a scheduler preemption or
// OOM kill delivers), re-run it as a reassignment attempt that resumes
// from the journal, merge — and require the merged report byte-equal to
// the report of `scibench campaign -shards 1` over the same sweep.
func TestShardedCampaignSIGKILLByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("drives real processes with wall-clock pacing")
	}
	sweepArgs := func(dir string) []string { return killSweepArgs(dir) }

	// Reference: the whole sweep in one supervised executor. The sweep
	// directory basename must match (it names the sweep in the report).
	refDir := filepath.Join(t.TempDir(), "sweep")
	ref, err := exec.Command(binPath,
		append([]string{"campaign", "-shards", "1"}, sweepArgs(refDir)...)...).Output()
	if err != nil {
		t.Fatalf("single-executor campaign: %v", err)
	}

	// Distributed: build the sweep, then run the two shards by hand.
	dir := filepath.Join(t.TempDir(), "sweep")
	if out, err := exec.Command(binPath,
		append([]string{"shard", "-shards", "2"}, sweepArgs(dir)...)...).CombinedOutput(); err != nil {
		t.Fatalf("scibench shard: %v\n%s", err, out)
	}

	// Start executor 0 and SIGKILL it once its first unit has sealed a
	// journal chunk — mid-unit: the sealed records survive, the unsealed
	// ones die with the process.
	shard0 := filepath.Join(dir, "shard-000")
	victim := exec.Command(binPath, "exec", shard0)
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(shard0, "units", "u000-seed-5", "journal.jsonl")
	deadline := time.Now().Add(15 * time.Second)
	for {
		if fi, err := os.Stat(journal); err == nil && fi.Size() > 8 {
			break
		}
		if time.Now().After(deadline) {
			victim.Process.Kill()
			t.Fatal("executor 0 never sealed a journal chunk")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := victim.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = victim.Wait()
	if !midUnit(shard0) {
		t.Fatal("the kill did not land mid-unit after a chunk seal; slow the pacing")
	}

	// Reassignment: attempt 2 resumes the interrupted unit from its
	// sealed chunk — those 61 samples are recovered, not measured again
	// — and finishes the shard; executor 1 runs clean.
	out, err := exec.Command(binPath, "exec", "-attempt", "2", shard0).CombinedOutput()
	if err != nil {
		t.Fatalf("reassigned executor: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "unit u000-seed-5: resumed (61 prior samples, ") {
		t.Errorf("reassigned executor did not resume u000 from its sealed chunk:\n%s", out)
	}
	if out, err := exec.Command(binPath, "exec", filepath.Join(dir, "shard-001")).CombinedOutput(); err != nil {
		t.Fatalf("executor 1: %v\n%s", err, out)
	}

	got, err := exec.Command(binPath, "merge", "-dir", dir).Output()
	if err != nil {
		t.Fatalf("scibench merge: %v", err)
	}
	if string(got) != string(ref) {
		t.Errorf("merged report after SIGKILL differs from single-executor run:\n--- ref\n%s\n--- got\n%s", ref, got)
	}
	if _, err := os.Stat(filepath.Join(dir, "merged.json")); err != nil {
		t.Errorf("merge recorded no merged.json: %v", err)
	}
}

// TestShardedCampaignKillRerunByteIdentity: `campaign -shards 2` runs
// its executors inside the campaign process, so a SIGKILL of the
// campaign stops every journal in the sweep at once. Rerunning the
// identical command restarts the coordinator over the existing mirror,
// resumes the interrupted units from their mirrored sealed chunks, and
// merges to the bytes of `campaign -shards 1`.
func TestShardedCampaignKillRerunByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("drives real processes with wall-clock pacing")
	}
	const pause = 250 * time.Millisecond // over twice a worker's default 100 ms ship interval
	refDir := filepath.Join(t.TempDir(), "sweep")
	ref, err := exec.Command(binPath,
		append([]string{"campaign", "-shards", "1"}, killSweepArgs(refDir)...)...).Output()
	if err != nil {
		t.Fatalf("single-executor campaign: %v", err)
	}

	dir := filepath.Join(t.TempDir(), "sweep")
	args := append([]string{"campaign", "-shards", "2"}, killSweepArgs(dir)...)
	// Workers keep their scratch journals under TMPDIR; confine them.
	tmp := t.TempDir()
	env := append(os.Environ(), "TMPDIR="+tmp)
	victim := exec.Command(binPath, args...)
	victim.Env = env
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	defer victim.Process.Kill()
	deadline := time.Now().Add(30 * time.Second)
	for !midUnit(filepath.Join(dir, "shard-000")) && !midUnit(filepath.Join(dir, "shard-001")) {
		if time.Now().After(deadline) {
			t.Fatal("the mirror never showed a shard mid-unit")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := victim.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = victim.Wait()

	// No executor outlives the campaign: not one unit journal grows.
	journalSizes := func() map[string]int64 {
		sizes := map[string]int64{}
		paths, _ := filepath.Glob(filepath.Join(dir, "shard-*", "units", "*", "journal.jsonl"))
		for _, p := range paths {
			if fi, err := os.Stat(p); err == nil {
				sizes[p] = fi.Size()
			}
		}
		return sizes
	}
	before := journalSizes()
	time.Sleep(2 * pause)
	if after := journalSizes(); !maps.Equal(before, after) {
		t.Errorf("unit journals kept growing after the campaign was killed:\n  before %v\n  after  %v", before, after)
	}

	// A SIGKILL leaves the dead campaign's worker scratch behind; the
	// clean rerun must remove its own.
	leftover, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	rerun := exec.Command(binPath, args...)
	rerun.Env = env
	rerun.Stderr = &stderr
	got, err := rerun.Output()
	if err != nil {
		t.Fatalf("rerun: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "resuming existing sweep") {
		t.Errorf("rerun did not reopen the existing sweep:\n%s", stderr.String())
	}
	if !resumedFromSeal.Match(stderr.Bytes()) {
		t.Errorf("rerun did not resume a unit from its mirrored journal:\n%s", stderr.String())
	}
	if string(got) != string(ref) {
		t.Errorf("rerun merged report differs from single-executor run:\n--- ref\n%s\n--- got\n%s", ref, got)
	}
	if now, err := os.ReadDir(tmp); err != nil || len(now) != len(leftover) {
		t.Errorf("rerun left worker scratch behind: %d entries before, %d after (%v)", len(leftover), len(now), err)
	}
}

// TestRemoteCampaignWorkerLossByteIdentity drives the cross-machine
// flow end to end with real processes: a coordinator campaign over two
// worker agents on loopback (one with injected drops and duplication on
// its link), one worker SIGKILLed mid-sweep so its shard stalls, is
// fenced, and is reassigned to the survivor — and the merged report
// must still be byte-identical to the single-process run.
func TestRemoteCampaignWorkerLossByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("drives real processes with wall-clock pacing")
	}
	sweepArgs := func(dir string) []string { return killSweepArgs(dir) }
	refDir := filepath.Join(t.TempDir(), "sweep")
	ref, err := exec.Command(binPath,
		append([]string{"campaign", "-shards", "1"}, sweepArgs(refDir)...)...).Output()
	if err != nil {
		t.Fatalf("single-executor campaign: %v", err)
	}

	dir := filepath.Join(t.TempDir(), "sweep")
	var coordOut strings.Builder
	coord := exec.Command(binPath, append([]string{"campaign", "-shards", "2",
		"-remote", "127.0.0.1:0", "-min-workers", "2", "-heartbeat-timeout", "2s"},
		sweepArgs(dir)...)...)
	coord.Stdout = &coordOut
	stderr, err := coord.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	defer coord.Process.Kill()

	// The coordinator picks a free port; read it off its stderr banner.
	urlCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "coordinator on http://"); i >= 0 {
				urlCh <- strings.Fields(line[i+len("coordinator on "):])[0]
			}
			fmt.Fprintln(os.Stderr, "coord:", line)
		}
	}()
	var coordURL string
	select {
	case coordURL = <-urlCh:
	case <-time.After(15 * time.Second):
		t.Fatal("coordinator never printed its address")
	}

	worker := func(name string, stderr *os.File, chaos ...string) *exec.Cmd {
		args := append([]string{"worker", "-coordinator", coordURL,
			"-work", filepath.Join(t.TempDir(), name), "-ship", "20ms"}, chaos...)
		w := exec.Command(binPath, args...)
		w.Stderr = stderr
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		return w
	}
	survivorLog, err := os.Create(filepath.Join(t.TempDir(), "wb.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer survivorLog.Close()
	victim := worker("wa", os.Stderr)
	defer victim.Process.Kill()
	survivor := worker("wb", survivorLog, "-fault-drop", "0.05", "-fault-dup", "0.08", "-fault-seed", "13")
	defer survivor.Process.Kill()

	// SIGKILL the first worker once the mirror shows both shards
	// mid-unit with a sealed chunk shipped (each worker holds one shard;
	// whichever the victim held must stall, be fenced, and land on the
	// survivor, which resumes it from the mirrored chunk).
	deadline := time.Now().Add(30 * time.Second)
	for !midUnit(filepath.Join(dir, "shard-000")) || !midUnit(filepath.Join(dir, "shard-001")) {
		if time.Now().After(deadline) {
			t.Fatal("the mirror never showed both shards mid-unit")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := victim.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = victim.Wait()

	if err := coord.Wait(); err != nil {
		t.Fatalf("remote campaign failed: %v\n%s", err, coordOut.String())
	}
	if coordOut.String() != string(ref) {
		t.Errorf("remote merged report differs from single-process run:\n--- ref\n%s\n--- got\n%s",
			ref, coordOut.String())
	}
	// The survivor resumed the victim's interrupted unit from the
	// mirrored sealed chunk instead of measuring it from the start.
	if log, err := os.ReadFile(survivorLog.Name()); err != nil {
		t.Fatal(err)
	} else if !resumedFromSeal.Match(log) {
		t.Errorf("survivor did not resume a unit from the mirrored journal:\n%s", log)
	}
	// Both shards carry host provenance; the reassigned one completed on
	// a later attempt.
	reassigned := false
	for _, sh := range []string{"shard-000", "shard-001"} {
		var done struct{ Attempt int }
		raw, err := os.ReadFile(filepath.Join(dir, sh, "done.json"))
		if err != nil {
			t.Fatalf("%s: %v", sh, err)
		}
		if err := json.Unmarshal(raw, &done); err != nil {
			t.Fatal(err)
		}
		if done.Attempt > 1 {
			reassigned = true
		}
		if _, err := os.Stat(filepath.Join(dir, sh, "host.json")); err != nil {
			t.Errorf("%s: no host record: %v", sh, err)
		}
	}
	if !reassigned {
		t.Error("no shard was reassigned — the kill landed after the sweep finished; lower the pacing")
	}
}

// TestCampaignRefusesExistingDir covers the Create guard end to end.
func TestCampaignRefusesExistingDir(t *testing.T) {
	if testing.Short() {
		t.Skip("drives real processes")
	}
	camp := filepath.Join(t.TempDir(), "camp")
	args := []string{"campaign", "-dir", camp, "-samples", "12", "-relerr", "0.5", "-seed", "3"}
	if out, err := exec.Command(binPath, args...).CombinedOutput(); err != nil {
		t.Fatalf("first campaign failed: %v\n%s", err, out)
	}
	out, err := exec.Command(binPath, args...).CombinedOutput()
	if exitCode(t, err) == 0 {
		t.Fatalf("second campaign in the same directory must fail:\n%s", out)
	}
	if !strings.Contains(string(out), "already holds a campaign") {
		t.Errorf("unexpected refusal message:\n%s", out)
	}
}

// TestCompareRatioInterval: `scibench compare` reports the B/A ratio
// with its interval; a column that is exactly twice the other reads 2.
func TestCompareRatioInterval(t *testing.T) {
	var csv strings.Builder
	csv.WriteString("a,b\n")
	for i := 1; i <= 12; i++ {
		x := 100 + float64(i*i%7)
		fmt.Fprintf(&csv, "%g,%g\n", x, 2*x)
	}
	cmd := exec.Command(binPath, "compare", "-a", "a", "-b", "b")
	cmd.Stdin = strings.NewReader(csv.String())
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("compare: %v\n%s", err, out)
	}
	if !regexp.MustCompile(`median ratio b/a = 2 \[1\.9\d*, 2\.0\d*\] \(95% CI\)`).Match(out) {
		t.Errorf("no ratio line for b = 2a:\n%s", out)
	}
}
