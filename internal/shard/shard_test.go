package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/rules"
)

// testEnv is the Rule 9 environment block the in-process tests record.
var testEnv = rules.Environment{
	Processor:        "simulated 64-rank cluster",
	Memory:           "simulated",
	Network:          "simulated fat-tree",
	Compiler:         "go (test)",
	InputAndCode:     "internal/shard tests",
	MeasurementSetup: "deterministic seeded measure source",
}

// unitCfg is the opaque per-unit config the test runner understands.
type unitCfg struct {
	Name string  `json:"name"`
	Base float64 `json:"base"`
}

// testFaultFP is the fingerprint of a nil fault schedule — what
// campaign.NewManifest records when no faults are injected.
func testFaultFP(t testing.TB) string {
	t.Helper()
	fp, err := campaign.HashJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// makeUnits builds k sweep units with seeds from the canonical
// per-config seed table (seed++ in canonical order, like
// suite.enumerate) and config hashes over their full configs.
func makeUnits(t testing.TB, k int, baseSeed uint64) []Unit {
	t.Helper()
	units := make([]Unit, k)
	for i := range units {
		cfg := unitCfg{Name: fmt.Sprintf("cfg-%02d", i), Base: 100 + 10*float64(i)}
		raw, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ch, err := campaign.HashJSON(cfg)
		if err != nil {
			t.Fatal(err)
		}
		units[i] = Unit{
			ID:         fmt.Sprintf("u%02d-%s", i, cfg.Name),
			Seed:       baseSeed + uint64(i),
			ConfigHash: ch,
			Config:     raw,
		}
	}
	return units
}

// testRunner rebuilds a deterministic measurement from a unit config: a
// seeded PRNG around the config's base latency. The same unit always
// yields the same sample stream, on any executor. samples overrides the
// plan's 12 samples per unit; more than 62 make a unit journal span
// several 64-record chunks.
type testRunner struct{ samples int }

func (r testRunner) Setup(u Unit) (campaign.Manifest, bench.Plan, func() (float64, error), error) {
	var cfg unitCfg
	if err := json.Unmarshal(u.Config, &cfg); err != nil {
		return campaign.Manifest{}, bench.Plan{}, nil, err
	}
	man, err := campaign.NewManifest(u.ID, u.Seed, cfg, nil, testEnv)
	if err != nil {
		return campaign.Manifest{}, bench.Plan{}, nil, err
	}
	rng := rand.New(rand.NewSource(int64(u.Seed)))
	measure := func() (float64, error) {
		return cfg.Base * (1 + 0.05*rng.Float64()), nil
	}
	plan := bench.Plan{Warmup: 2, MinSamples: 12}
	if r.samples > 0 {
		plan.MinSamples = r.samples
	}
	return man, plan, measure, nil
}

// buildSweep creates a sweep directory with k units over n shards.
func buildSweep(t testing.TB, dir string, k, n int) SweepManifest {
	t.Helper()
	sw, err := NewSweep("test-sweep", makeUnits(t, k, 42), testFaultFP(t), testEnv, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := Create(dir, sw); err != nil {
		t.Fatal(err)
	}
	return sw
}

// execAll runs every shard in-process and returns the canonical report.
func execAll(t *testing.T, dir string, sw SweepManifest) []byte {
	t.Helper()
	return execAllWith(t, dir, sw, testRunner{})
}

// execAllWith is execAll with a chosen runner.
func execAllWith(t *testing.T, dir string, sw SweepManifest, r UnitRunner) []byte {
	t.Helper()
	for i := range sw.Shards() {
		sd := filepath.Join(dir, ShardDirName(i))
		if _, err := ExecShard(context.Background(), sd, r, ExecOptions{}); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	return mergedReport(t, dir)
}

func mergedReport(t *testing.T, dir string) []byte {
	t.Helper()
	rep, err := Merge(dir)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	var buf bytes.Buffer
	if err := rep.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestPartitionCoversCanonicalOrder(t *testing.T) {
	for _, tc := range []struct{ n, shards int }{
		{1, 1}, {7, 1}, {7, 2}, {7, 3}, {8, 4}, {8, 8}, {5, 9},
	} {
		ranges := Partition(tc.n, tc.shards)
		next := 0
		for _, r := range ranges {
			if r[0] != next {
				t.Fatalf("Partition(%d,%d): gap or overlap at %d (ranges %v)", tc.n, tc.shards, next, ranges)
			}
			if r[1] < r[0] {
				t.Fatalf("Partition(%d,%d): negative range %v", tc.n, tc.shards, r)
			}
			next = r[1]
		}
		if next != tc.n {
			t.Fatalf("Partition(%d,%d) covers %d of %d units", tc.n, tc.shards, next, tc.n)
		}
	}
}

func TestNewSweepValidation(t *testing.T) {
	units := makeUnits(t, 3, 1)
	if _, err := NewSweep("s", nil, "fp", testEnv, 1); !errors.Is(err, ErrBadSweep) {
		t.Fatalf("empty units: got %v", err)
	}
	if _, err := NewSweep("s", units, "fp", testEnv, 4); !errors.Is(err, ErrBadSweep) {
		t.Fatalf("more shards than units: got %v", err)
	}
	bad := append([]Unit(nil), units...)
	bad[1].ID = "../escape"
	if _, err := NewSweep("s", bad, "fp", testEnv, 1); !errors.Is(err, ErrBadSweep) {
		t.Fatalf("unsafe ID: got %v", err)
	}
	dup := append([]Unit(nil), units...)
	dup[1].ID = dup[0].ID
	if _, err := NewSweep("s", dup, "fp", testEnv, 1); !errors.Is(err, ErrBadSweep) {
		t.Fatalf("duplicate ID: got %v", err)
	}
}

func TestSweepHashIgnoresPartition(t *testing.T) {
	units := makeUnits(t, 4, 7)
	a, err := NewSweep("s", units, "fp", testEnv, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSweep("s", units, "fp", testEnv, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.SweepHash != b.SweepHash {
		t.Fatal("repartitioning the same sweep changed its identity hash")
	}
}

func TestLoadSweepRefusesTamper(t *testing.T) {
	dir := t.TempDir()
	sw := buildSweep(t, dir, 3, 2)
	// Tamper: change one unit's seed in sweep.json without rehashing.
	sw.Units[1].Seed++
	if err := WriteJSON(filepath.Join(dir, SweepFile), sw); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSweep(dir); !errors.Is(err, ErrShardDrift) {
		t.Fatalf("tampered sweep: got %v", err)
	}
}

func TestCreateRefusesExistingSweep(t *testing.T) {
	dir := t.TempDir()
	sw := buildSweep(t, dir, 2, 1)
	if err := Create(dir, sw); !errors.Is(err, ErrSweepExists) {
		t.Fatalf("second create: got %v", err)
	}
}

// TestMergeByteIdentity is the core determinism guarantee: the
// canonical merged report is byte-identical whether the sweep ran in
// one process or was partitioned across 2 or 4 executors.
func TestMergeByteIdentity(t *testing.T) {
	const units = 8
	ref := func() []byte {
		dir := t.TempDir()
		sw := buildSweep(t, dir, units, 1)
		return execAll(t, dir, sw)
	}()
	if !bytes.Contains(ref, []byte("verdict: COMPLETE")) {
		t.Fatalf("reference report not complete:\n%s", ref)
	}
	for _, n := range []int{2, 4} {
		dir := t.TempDir()
		sw := buildSweep(t, dir, units, n)
		got := execAll(t, dir, sw)
		if !bytes.Equal(got, ref) {
			t.Errorf("merged report for %d shard(s) differs from single-process run:\n--- n=1\n%s\n--- n=%d\n%s", n, ref, n, got)
		}
	}
}

// TestExecShardSkipsCompletedUnits: a reassigned executor must never
// re-measure a completed unit.
func TestExecShardSkipsCompletedUnits(t *testing.T) {
	dir := t.TempDir()
	sw := buildSweep(t, dir, 3, 1)
	sd := filepath.Join(dir, ShardDirName(0))
	if _, err := ExecShard(context.Background(), sd, testRunner{}, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	ref := mergedReport(t, dir)
	// Remove the done sentinel and re-exec: every unit already carries
	// its result.json, so the second pass must skip them all — leaving
	// journals, and therefore the merged report, untouched.
	if err := os.Remove(filepath.Join(sd, DoneFile)); err != nil {
		t.Fatal(err)
	}
	before := journalBytes(t, UnitDir(sd, sw.Units[0].ID))
	if _, err := ExecShard(context.Background(), sd, testRunner{}, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, journalBytes(t, UnitDir(sd, sw.Units[0].ID))) {
		t.Fatal("re-exec touched a completed unit's journal")
	}
	if got := mergedReport(t, dir); !bytes.Equal(got, ref) {
		t.Fatal("re-exec changed the merged report")
	}
}

// TestMergeRefusesSentinelJournalDisagreement: a completed unit whose
// journal is cut back to an earlier chunk boundary, with its result.json
// kept, replays fewer observations than its sentinel records. The merge
// must declare the unit lost with a Rule 4 finding naming both counts
// and degrade the verdict, not report the smaller n as complete.
func TestMergeRefusesSentinelJournalDisagreement(t *testing.T) {
	dir := t.TempDir()
	sw := buildSweep(t, dir, 1, 1)
	if got := execAllWith(t, dir, sw, testRunner{samples: 100}); !bytes.Contains(got, []byte("verdict: COMPLETE")) {
		t.Fatalf("reference report not complete:\n%s", got)
	}
	jpath := filepath.Join(UnitDir(filepath.Join(dir, ShardDirName(0)), sw.Units[0].ID), campaign.JournalFile)
	b := journalBytes(t, filepath.Dir(jpath))
	cut := int64(len(b)) - 1
	for campaign.ValidPrefix(b[:cut]) != cut {
		cut--
	}
	if err := os.Truncate(jpath, cut); err != nil {
		t.Fatal(err)
	}
	rep, err := Merge(dir)
	if err != nil {
		t.Fatal(err)
	}
	u := rep.Units[0]
	if !u.Lost || u.Completed || rep.Stop != bench.StopDegraded {
		t.Fatalf("cut journal merged as lost=%v completed=%v stop=%q, want lost and degraded", u.Lost, u.Completed, rep.Stop)
	}
	want := fmt.Sprintf("completion sentinel records n=100 but its journal replays %d observations", u.N)
	found := false
	for _, f := range rep.Findings {
		found = found || (f.Rule == 4 && strings.Contains(f.Message, want))
	}
	if u.N >= 100 || !found {
		t.Fatalf("no Rule 4 finding %q (n=%d): %+v", want, u.N, rep.Findings)
	}
	if got := mergedReport(t, dir); !bytes.Contains(got, []byte("| LOST |")) || !bytes.Contains(got, []byte("verdict: DEGRADED")) {
		t.Fatalf("report does not declare the loss:\n%s", got)
	}
}

func journalBytes(t *testing.T, unitDir string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(unitDir, campaign.JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// interruptRunner cancels the campaign context after k measure calls of
// one chosen unit — an in-process stand-in for an executor dying
// mid-unit (the real SIGKILL variant lives in proc_test.go).
type interruptRunner struct {
	unit   string
	after  int
	cancel context.CancelFunc

	mu    sync.Mutex
	calls int
	armed bool
}

func (r *interruptRunner) Setup(u Unit) (campaign.Manifest, bench.Plan, func() (float64, error), error) {
	man, plan, measure, err := testRunner{}.Setup(u)
	if err != nil || u.ID != r.unit {
		return man, plan, measure, err
	}
	wrapped := func() (float64, error) {
		r.mu.Lock()
		r.calls++
		fire := r.armed && r.calls == r.after
		r.mu.Unlock()
		if fire {
			r.cancel()
		}
		return measure()
	}
	return man, plan, wrapped, nil
}

// TestReassignedShardResumesFromJournal: an executor dies mid-unit; the
// replacement resumes from the journal (never re-measuring completed
// observations) and the merged report is byte-identical to the
// untroubled run.
func TestReassignedShardResumesFromJournal(t *testing.T) {
	const units = 6
	ref := func() []byte {
		dir := t.TempDir()
		sw := buildSweep(t, dir, units, 2)
		return execAll(t, dir, sw)
	}()

	dir := t.TempDir()
	sw := buildSweep(t, dir, units, 2)
	victim := sw.Units[4].ID // lives in shard 1
	sd0 := filepath.Join(dir, ShardDirName(0))
	sd1 := filepath.Join(dir, ShardDirName(1))
	if _, err := ExecShard(context.Background(), sd0, testRunner{}, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	// First attempt on shard 1 dies mid-victim (after 7 calls: warmup
	// plus a few journaled samples).
	ctx, cancel := context.WithCancel(context.Background())
	r := &interruptRunner{unit: victim, after: 7, cancel: cancel, armed: true}
	if _, err := ExecShard(ctx, sd1, r, ExecOptions{Attempt: 1}); err == nil {
		t.Fatal("interrupted executor reported success")
	}
	st, err := campaignState(UnitDir(sd1, victim))
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Records) == 0 {
		t.Fatal("no journaled observations before the interrupt; the test exercises nothing")
	}
	// Reassignment: a fresh executor on the same shard dir.
	r2 := &interruptRunner{unit: victim, cancel: func() {}}
	if _, err := ExecShard(context.Background(), sd1, r2, ExecOptions{Attempt: 2}); err != nil {
		t.Fatal(err)
	}
	// The resumed attempt must not have re-measured unit 3 of the shard
	// (already completed) nor re-collected the victim's journaled
	// samples: its measure was invoked only for fast-forward replay plus
	// the remaining observations, i.e. exactly plan total (14) calls.
	if r2.calls != 14 {
		t.Errorf("reassigned executor made %d measure calls for the victim, want 14 (replay + remainder)", r2.calls)
	}
	if got := mergedReport(t, dir); !bytes.Equal(got, ref) {
		t.Errorf("merged report after reassignment differs from untroubled run:\n--- ref\n%s\n--- got\n%s", ref, got)
	}
}

func campaignState(dir string) (campaign.State, error) {
	_, st, err := campaign.Load(dir)
	return st, err
}

// --- supervisor ---

// fakeHandle is an in-process "executor" the supervisor can wait on and
// kill.
type fakeHandle struct {
	done chan struct{}
	once sync.Once
	err  error
}

func newFakeHandle() *fakeHandle { return &fakeHandle{done: make(chan struct{})} }

func (h *fakeHandle) Wait() error { <-h.done; return h.err }
func (h *fakeHandle) Kill() error { h.finish(errors.New("killed")); return nil }
func (h *fakeHandle) finish(err error) {
	h.once.Do(func() { h.err = err; close(h.done) })
}

// TestSuperviseStallKillAndLoss: attempts their launcher fences as
// stalled are counted as stalls, reassigned under the retry budget, and
// the shard is finally reported lost — explicitly.
func TestSuperviseStallKillAndLoss(t *testing.T) {
	dir := t.TempDir()
	buildSweep(t, dir, 2, 1)
	var mu sync.Mutex
	var attempts int
	start := func(shardDir string, attempt int) (Handle, error) {
		mu.Lock()
		attempts++
		mu.Unlock()
		h := newFakeHandle() // never completes a measurement
		h.finish(fmt.Errorf("%w: attempt %d fenced", ErrStalled, attempt))
		return h, nil
	}
	statuses, err := Supervise(context.Background(), dir, start, Options{
		Retries: 2,
		Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(statuses) != 1 {
		t.Fatalf("got %d statuses", len(statuses))
	}
	st := statuses[0]
	if !st.Lost || st.Attempts != 3 || st.Stalls != 3 {
		t.Fatalf("want lost after 3 stalled attempts, got %+v", st)
	}
	if attempts != 3 {
		t.Fatalf("start called %d times, want 3", attempts)
	}
	if !strings.Contains(st.Err, "stalled") {
		t.Fatalf("status does not name the stall: %+v", st)
	}

	// Graceful degradation: the merge accounts the lost shard's units as
	// explicit losses and degrades the campaign verdict.
	rep, err := Merge(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.UnitsLost != 2 || rep.Stop != bench.StopDegraded {
		t.Fatalf("want 2 lost units and StopDegraded, got lost=%d stop=%q", rep.UnitsLost, rep.Stop)
	}
	var buf bytes.Buffer
	if err := rep.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "LOST") || !strings.Contains(out, "DEGRADED") {
		t.Fatalf("report hides the loss:\n%s", out)
	}
	lossFindings := 0
	for _, f := range rep.Findings {
		if f.Rule == 4 {
			lossFindings++
		}
	}
	if lossFindings != 2 {
		t.Fatalf("want one Rule 4 finding per lost unit, got %d", lossFindings)
	}
}

// TestSuperviseInProcessExecutors drives real ExecShard work through
// the supervisor with in-process executors, crashing the first attempt
// of one shard; the supervisor reassigns it and the merged report is
// byte-identical to the untroubled single-process run.
func TestSuperviseInProcessExecutors(t *testing.T) {
	const units = 6
	ref := func() []byte {
		dir := t.TempDir()
		sw := buildSweep(t, dir, units, 1)
		return execAll(t, dir, sw)
	}()

	dir := t.TempDir()
	sw := buildSweep(t, dir, units, 2)
	victim := sw.Units[1].ID
	var mu sync.Mutex
	firstCrash := true
	start := func(shardDir string, attempt int) (Handle, error) {
		h := newFakeHandle()
		ctx, cancel := context.WithCancel(context.Background())
		runner := UnitRunner(testRunner{})
		mu.Lock()
		if filepath.Base(shardDir) == ShardDirName(0) && firstCrash {
			firstCrash = false
			runner = &interruptRunner{unit: victim, after: 5, cancel: cancel, armed: true}
		}
		mu.Unlock()
		go func() {
			defer cancel()
			_, err := ExecShard(ctx, shardDir, runner, ExecOptions{Attempt: attempt})
			h.finish(err)
		}()
		return h, nil
	}
	statuses, err := Supervise(context.Background(), dir, start, Options{
		Retries: 2,
		Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range statuses {
		if st.Lost {
			t.Fatalf("shard lost despite retry budget: %+v", st)
		}
	}
	if statuses[0].Attempts != 2 || statuses[0].Crashes != 1 {
		t.Fatalf("shard 0 should have crashed once and been reassigned: %+v", statuses[0])
	}
	if got := mergedReport(t, dir); !bytes.Equal(got, ref) {
		t.Errorf("merged report after supervised crash differs:\n--- ref\n%s\n--- got\n%s", ref, got)
	}
}

// TestMergeRefusesDriftedUnit: a unit journal recorded under a
// different seed must refuse the merge, naming the field.
func TestMergeRefusesDriftedUnit(t *testing.T) {
	dir := t.TempDir()
	sw := buildSweep(t, dir, 2, 1)
	sd := filepath.Join(dir, ShardDirName(0))
	if _, err := ExecShard(context.Background(), sd, testRunner{}, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	// Tamper with one recorded unit manifest: a different seed.
	udir := UnitDir(sd, sw.Units[0].ID)
	mpath := filepath.Join(udir, campaign.ManifestFile)
	b, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	var man campaign.Manifest
	if err := json.Unmarshal(b, &man); err != nil {
		t.Fatal(err)
	}
	man.Seed++
	nb, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mpath, nb, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Merge(dir)
	if !errors.Is(err, campaign.ErrManifestDrift) {
		t.Fatalf("drifted unit manifest not refused: %v", err)
	}
	if !strings.Contains(err.Error(), "seed") {
		t.Fatalf("refusal does not name the drifted field: %v", err)
	}
}

// TestMergeRefusesForeignShard: a shard.json from a different sweep is
// refused with a named sweep-hash mismatch.
func TestMergeRefusesForeignShard(t *testing.T) {
	dir := t.TempDir()
	buildSweep(t, dir, 2, 1)
	sd := filepath.Join(dir, ShardDirName(0))
	m, err := LoadManifest(sd)
	if err != nil {
		t.Fatal(err)
	}
	m.SweepHash = strings.Repeat("0", 64)
	if err := WriteJSON(filepath.Join(sd, ManifestFile), m); err != nil {
		t.Fatal(err)
	}
	_, err = Merge(dir)
	if !errors.Is(err, ErrShardDrift) {
		t.Fatalf("foreign shard not refused: %v", err)
	}
	if !strings.Contains(err.Error(), "sweep hash") {
		t.Fatalf("refusal does not name the field: %v", err)
	}
}

// TestSeamChecksRun: with healthy shards the seam checks run and report
// no drift; the merged manifest records per-shard env fingerprints.
func TestSeamChecksRun(t *testing.T) {
	dir := t.TempDir()
	sw := buildSweep(t, dir, 6, 3)
	execAll(t, dir, sw)
	rep, err := Merge(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Seams) != 2 {
		t.Fatalf("want 2 seams for 3 shards, got %d", len(rep.Seams))
	}
	for _, sc := range rep.Seams {
		if !sc.Checked {
			t.Fatalf("seam %d|%d not checked", sc.Left, sc.Right)
		}
		if sc.Drift {
			t.Fatalf("identical-environment sweep flagged seam drift: %+v", sc)
		}
	}
	for _, s := range rep.Shards {
		if s.EnvFingerprint == "" {
			t.Fatalf("shard %d has no env fingerprint", s.Index)
		}
	}
	if err := WriteMerged(dir, rep); err != nil {
		t.Fatal(err)
	}
	var mm MergedManifest
	if err := readJSON(filepath.Join(dir, MergedFile), &mm); err != nil {
		t.Fatal(err)
	}
	if mm.SweepHash != sw.SweepHash || len(mm.Shards) != 3 || mm.Shards[1].EnvFingerprint == "" {
		t.Fatalf("merged manifest incomplete: %+v", mm)
	}
}

// TestSeamDetectsExecutorDrift synthesizes the failure the seam check
// exists for: one executor's machine suffers intermittent interference
// (a co-tenant, a cron job — the shared-runner contamination
// EXPERIMENTS.md narrates), spiking a fraction of its observations.
// Per-unit median normalization cannot hide it, and Pettitt localizes
// the shift exactly at the merge seam.
func TestSeamDetectsExecutorDrift(t *testing.T) {
	dir := t.TempDir()
	sw := buildSweep(t, dir, 8, 2)
	sd0 := filepath.Join(dir, ShardDirName(0))
	sd1 := filepath.Join(dir, ShardDirName(1))
	if _, err := ExecShard(context.Background(), sd0, testRunner{}, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := ExecShard(context.Background(), sd1, driftRunner{factor: 5}, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	rep, err := Merge(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Seams) != 1 || !rep.Seams[0].Checked {
		t.Fatalf("seam not checked: %+v", rep.Seams)
	}
	if !rep.Seams[0].Drift {
		t.Fatalf("contaminated executor not flagged at the seam: %+v", rep.Seams[0])
	}
	found := false
	for _, f := range rep.Findings {
		if f.Rule == 6 && strings.Contains(f.Message, "merge seam") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no Rule 6 finding for the seam drift: %v", rep.Findings)
	}
	_ = sw
}

// driftRunner measures like testRunner on a machine with intermittent
// interference: just under half of each unit's observations (every
// other sample among the first ten) are inflated by factor. The spikes
// leave the unit median in the clean cluster, so per-unit
// normalization preserves the contamination for the seam check to find.
type driftRunner struct{ factor float64 }

func (r driftRunner) Setup(u Unit) (campaign.Manifest, bench.Plan, func() (float64, error), error) {
	man, plan, measure, err := testRunner{}.Setup(u)
	if err != nil {
		return man, plan, nil, err
	}
	calls := 0
	skew := func() (float64, error) {
		calls++
		v, err := measure()
		// Calls 1-2 are warmup; spike samples 1,3,5,7,9 (calls 3-11 odd).
		if calls >= 3 && calls <= 11 && calls%2 == 1 {
			v *= r.factor
		}
		return v, err
	}
	return man, plan, skew, nil
}

// TestMergeByteIdenticalAcrossJournalFormats: every executor journals
// its units in v2, the only encoding read or written; a unit journal in
// any other encoding (here an old v1 JSONL line) makes the merge refuse
// with campaign.ErrNotJournal and leaves the file untouched, and once
// the v2 bytes are back the merge reproduces the same report.
func TestMergeByteIdenticalAcrossJournalFormats(t *testing.T) {
	const k, n = 6, 3
	dir := t.TempDir()
	sw := buildSweep(t, dir, k, n)
	rep := execAll(t, dir, sw)

	var first string
	for i, m := range sw.Shards() {
		for _, u := range m.Units {
			path := filepath.Join(UnitDir(filepath.Join(dir, ShardDirName(i)), u.ID), campaign.JournalFile)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(data, []byte("SCIBJv2\n")) {
				t.Fatalf("unit %s journal is not v2", u.ID)
			}
			if first == "" {
				first = path
			}
		}
	}
	v2, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	foreign := []byte(`{"crc":374613739,"rec":{"event":{"calls":1,"kind":"warmup","value":0},"seq":1}}` + "\n")
	if err := os.WriteFile(first, foreign, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Merge(dir); !errors.Is(err, campaign.ErrNotJournal) {
		t.Fatalf("merge over a v1 unit journal: err = %v, want ErrNotJournal", err)
	}
	if after, err := os.ReadFile(first); err != nil || !bytes.Equal(after, foreign) {
		t.Fatalf("refused merge changed the v1 journal (err %v)", err)
	}
	if err := os.WriteFile(first, v2, 0o644); err != nil {
		t.Fatal(err)
	}
	if again := mergedReport(t, dir); !bytes.Equal(again, rep) {
		t.Fatalf("re-merge differs:\n--- first ---\n%s\n--- again ---\n%s", rep, again)
	}
}
