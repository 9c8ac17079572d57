package shard

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/campaign"
)

// TestMain doubles as the executor entry point for the multi-process
// tests: when SHARD_EXEC_DIR is set, the test binary re-execs as a real
// shard executor (optionally crashing itself with SIGKILL mid-unit or
// hanging before its first progress line) instead of running the test
// suite.
func TestMain(m *testing.M) {
	if dir := os.Getenv("SHARD_EXEC_DIR"); dir != "" {
		procExecMain(dir)
		return
	}
	os.Exit(m.Run())
}

// crashMarker is the sentinel an executor writes just before injecting
// its crash, so the fault fires exactly once per shard: the reassigned
// attempt sees the marker and runs clean.
func crashMarker(dir string) string { return filepath.Join(dir, "crash.marker") }

func procExecMain(dir string) {
	attempt, _ := strconv.Atoi(os.Getenv("SHARD_ATTEMPT"))
	if os.Getenv("SHARD_HANG") == "1" {
		if _, err := os.Stat(crashMarker(dir)); os.IsNotExist(err) {
			// A genuinely wedged executor: no progress, no exit. Only
			// its launcher's lease can fence it.
			_ = os.WriteFile(crashMarker(dir), []byte("hang"), 0o644)
			time.Sleep(time.Hour)
		}
	}
	samples, _ := strconv.Atoi(os.Getenv("SHARD_SAMPLES"))
	var r UnitRunner = testRunner{samples: samples}
	if s := os.Getenv("SHARD_KILL_AT"); s != "" {
		if _, err := os.Stat(crashMarker(dir)); os.IsNotExist(err) {
			at, _ := strconv.Atoi(s)
			r = &killRunner{inner: r, at: at, marker: crashMarker(dir)}
		}
	}
	_, err := ExecShard(context.Background(), dir, r, ExecOptions{
		Attempt:  attempt,
		Progress: os.Stderr,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "executor:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// killRunner SIGKILLs its own process (no cleanup, no deferred
// truncation — the hardest crash there is) immediately before measure
// call `at`, counted across the whole shard.
type killRunner struct {
	inner  UnitRunner
	at     int
	marker string
	calls  int
}

func (k *killRunner) Setup(u Unit) (campaign.Manifest, bench.Plan, func() (float64, error), error) {
	man, plan, measure, err := k.inner.Setup(u)
	if err != nil {
		return man, plan, measure, err
	}
	wrapped := func() (float64, error) {
		k.calls++
		if k.calls == k.at {
			_ = os.WriteFile(k.marker, []byte("killed"), 0o644)
			_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
		}
		return measure()
	}
	return man, plan, wrapped, nil
}

// procHandle is the supervisor's view of one re-exec'd executor
// process: Kill is a plain SIGKILL of that process.
type procHandle struct{ cmd *exec.Cmd }

func (h procHandle) Wait() error { return h.cmd.Wait() }
func (h procHandle) Kill() error { return h.cmd.Process.Kill() }

// procStart builds a StartFunc that re-execs this test binary as a
// real executor process, with extra per-shard environment (keyed by
// shard directory basename) for fault injection. With logDir set, each
// executor's stderr (its per-unit progress lines) goes to
// logDir/<shard>.<attempt>.log instead of the test's stderr.
func procStart(t *testing.T, extra map[string][]string, logDir string) StartFunc {
	t.Helper()
	return func(shardDir string, attempt int) (Handle, error) {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(),
			"SHARD_EXEC_DIR="+shardDir,
			fmt.Sprintf("SHARD_ATTEMPT=%d", attempt))
		cmd.Env = append(cmd.Env, extra[filepath.Base(shardDir)]...)
		cmd.Stderr = os.Stderr
		if logDir != "" {
			f, err := os.Create(filepath.Join(logDir, fmt.Sprintf("%s.%d.log", filepath.Base(shardDir), attempt)))
			if err != nil {
				return nil, err
			}
			t.Cleanup(func() { f.Close() })
			cmd.Stderr = f
		}
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		return procHandle{cmd}, nil
	}
}

// leaseStart launches executor processes as procStart does, under a
// stand-in for the coordinator's lease: an attempt whose progress output
// (its per-unit stderr lines) stays silent for timeout is SIGKILLed, and
// its Wait reports an error wrapping ErrStalled.
func leaseStart(extra map[string][]string, timeout time.Duration) StartFunc {
	return func(shardDir string, attempt int) (Handle, error) {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(),
			"SHARD_EXEC_DIR="+shardDir,
			fmt.Sprintf("SHARD_ATTEMPT=%d", attempt))
		cmd.Env = append(cmd.Env, extra[filepath.Base(shardDir)]...)
		p := &leasedProc{cmd: cmd, timeout: timeout}
		cmd.Stderr = p
		p.mu.Lock()
		defer p.mu.Unlock()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		p.timer = time.AfterFunc(timeout, p.fence)
		return p, nil
	}
}

// leasedProc is one executor process under leaseStart: every progress
// write re-arms its timer, and an expired timer fences the process.
type leasedProc struct {
	cmd     *exec.Cmd
	timeout time.Duration
	mu      sync.Mutex
	timer   *time.Timer
	stalled bool
}

func (p *leasedProc) Write(b []byte) (int, error) {
	p.mu.Lock()
	p.timer.Reset(p.timeout)
	p.mu.Unlock()
	return os.Stderr.Write(b)
}

func (p *leasedProc) fence() {
	p.mu.Lock()
	p.stalled = true
	p.mu.Unlock()
	_ = p.cmd.Process.Kill()
}

func (p *leasedProc) Wait() error {
	err := p.cmd.Wait()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.timer.Stop()
	if p.stalled {
		return fmt.Errorf("%w: no progress for %v", ErrStalled, p.timeout)
	}
	return err
}

func (p *leasedProc) Kill() error { return p.cmd.Process.Kill() }

// TestProcessSIGKILLResumeByteIdentity is the acceptance scenario: 3
// executor processes, one SIGKILLed mid-shard (mid-unit, with a sealed
// journal chunk and an unsealed tail), its shard reassigned and resumed
// from the journal — and the merged report is byte-identical to the
// single-process run.
func TestProcessSIGKILLResumeByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test")
	}
	// 100 samples + 2 warmups: each unit journals 102 records, one
	// sealed 64-record chunk and a 38-record final chunk.
	const units, samples, perUnit = 8, 100, 102
	t.Setenv("SHARD_SAMPLES", strconv.Itoa(samples))
	ref := func() []byte {
		dir := t.TempDir()
		sw := buildSweep(t, dir, units, 1)
		return execAllWith(t, dir, sw, testRunner{samples: samples})
	}()

	dir := t.TempDir()
	buildSweep(t, dir, units, 3)
	// Kill shard 1 before measure call perUnit+80: inside its second
	// unit, after 79 records — the first chunk sealed, 15 records not.
	logs := t.TempDir()
	start := procStart(t, map[string][]string{
		ShardDirName(1): {fmt.Sprintf("SHARD_KILL_AT=%d", perUnit+80)},
	}, logs)
	statuses, err := Supervise(context.Background(), dir, start, Options{
		Retries: 2,
		Backoff: 10 * time.Millisecond,
		Log:     os.Stderr,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range statuses {
		if st.Lost {
			t.Fatalf("shard %d lost: %+v", st.Shard, st)
		}
	}
	if statuses[1].Attempts != 2 || statuses[1].Crashes != 1 {
		t.Fatalf("SIGKILLed shard should have crashed once and been reassigned: %+v", statuses[1])
	}
	if _, err := os.Stat(crashMarker(filepath.Join(dir, ShardDirName(1)))); err != nil {
		t.Fatalf("crash never fired: %v", err)
	}
	// The replacement skipped the completed first unit and resumed the
	// second from its sealed chunk: 62 retained samples recovered, not
	// re-measured (only replayed to restore the PRNG position).
	m, err := LoadManifest(filepath.Join(dir, ShardDirName(1)))
	if err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(filepath.Join(logs, ShardDirName(1)+".2.log"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf("unit %s: already complete, skipped", m.Units[0].ID),
		fmt.Sprintf("unit %s: resumed (62 prior samples, ", m.Units[1].ID),
	} {
		if !bytes.Contains(log, []byte(want)) {
			t.Errorf("reassigned executor did not report %q:\n%s", want, log)
		}
	}
	got := mergedReport(t, dir)
	if !bytes.Equal(got, ref) {
		t.Errorf("merged report after SIGKILL + reassignment differs from single-process run:\n--- ref\n%s\n--- got\n%s", ref, got)
	}
}

// TestProcessStallDetectedAndReassigned: an executor process that wedges
// before its first progress line is fenced by its launcher's lease,
// which reports ErrStalled; the supervisor counts one stall and
// reassigns the shard, and the merged report is still byte-identical.
func TestProcessStallDetectedAndReassigned(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test")
	}
	const units = 4
	ref := func() []byte {
		dir := t.TempDir()
		sw := buildSweep(t, dir, units, 1)
		return execAll(t, dir, sw)
	}()

	dir := t.TempDir()
	buildSweep(t, dir, units, 2)
	start := leaseStart(map[string][]string{
		ShardDirName(0): {"SHARD_HANG=1"},
	}, time.Second)
	statuses, err := Supervise(context.Background(), dir, start, Options{
		Retries: 2,
		Backoff: 10 * time.Millisecond,
		Log:     os.Stderr,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range statuses {
		if st.Lost {
			t.Fatalf("shard %d lost: %+v", st.Shard, st)
		}
	}
	if statuses[0].Stalls != 1 || statuses[0].Attempts != 2 {
		t.Fatalf("hung executor should have been stall-fenced once: %+v", statuses[0])
	}
	got := mergedReport(t, dir)
	if !bytes.Equal(got, ref) {
		t.Errorf("merged report after stall + reassignment differs from single-process run:\n--- ref\n%s\n--- got\n%s", ref, got)
	}
}
