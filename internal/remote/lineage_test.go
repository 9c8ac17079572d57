package remote

import (
	"bytes"
	"context"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/shard"
)

// cancelRunner is a testRunner that cancels its executor after `after`
// measure calls of one unit: the campaign seals its partial chunk and
// stops, as on SIGINT.
type cancelRunner struct {
	testRunner
	after  int
	cancel context.CancelFunc
}

func (r cancelRunner) Setup(u shard.Unit) (campaign.Manifest, bench.Plan, func() (float64, error), error) {
	man, plan, measure, err := r.testRunner.Setup(u)
	if err != nil {
		return man, plan, measure, err
	}
	n := 0
	return man, plan, func() (float64, error) {
		v, err := measure()
		if n++; n == r.after {
			r.cancel()
		}
		return v, err
	}, nil
}

// interruptShard runs shardDir's executor until `after` measure calls
// of its first unfinished unit, then interrupts it.
func interruptShard(t *testing.T, shardDir string, samples, after int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := cancelRunner{testRunner: testRunner{samples: samples}, after: after, cancel: cancel}
	if _, err := shard.ExecShard(ctx, shardDir, r, shard.ExecOptions{}); err == nil {
		t.Fatalf("executor in %s was not interrupted after %d calls", shardDir, after)
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDivergentLocalJournalNotSpliced: the mirror and a worker's work
// directory hold two lineages of one unit's journal — interrupted after
// 40 and after 100 measure calls of two different runs, so neither is a
// prefix of the other. The worker must drop its own copy for the
// mirror's, not splice its longer file onto the mirror: the run ends
// with mirror and local journal equal, replaying clean, and the merged
// report byte-identical to the single-process run.
func TestDivergentLocalJournalNotSpliced(t *testing.T) {
	if testing.Short() {
		t.Skip("drives wall-clock supervision loops")
	}
	const samples = 200
	ref := referenceReportWith(t, 1, testRunner{samples: samples})

	dir := filepath.Join(t.TempDir(), "sweep")
	sw := buildSweep(t, dir, 1, 1)
	unit := sw.Units[0].ID
	mirrorShard := filepath.Join(dir, shard.ShardDirName(0))
	interruptShard(t, mirrorShard, samples, 40)

	work := filepath.Join(t.TempDir(), "w0")
	localShard := filepath.Join(work, short12(sw.SweepHash), shard.ShardDirName(0))
	if err := os.MkdirAll(localShard, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := shard.WriteJSON(filepath.Join(localShard, shard.ManifestFile), sw.Shards()[0]); err != nil {
		t.Fatal(err)
	}
	interruptShard(t, localShard, samples, 100)

	mirrorJ := filepath.Join(shard.UnitDir(mirrorShard, unit), campaign.JournalFile)
	localJ := filepath.Join(shard.UnitDir(localShard, unit), campaign.JournalFile)
	m, l := readFile(t, mirrorJ), readFile(t, localJ)
	t.Logf("mirror journal %d bytes, local journal %d bytes", len(m), len(l))
	if len(l) <= len(m) || bytes.HasPrefix(l, m) {
		t.Fatalf("fixture: local journal (%d bytes) must be longer than the mirror's (%d) and not extend it", len(l), len(m))
	}

	c, err := NewCoordinator(dir, CoordinatorOptions{Seed: 5, HeartbeatTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	w, err := StartWorker(WorkerOptions{
		Coordinator:  c.URL(),
		WorkDir:      work,
		Runner:       testRunner{samples: samples},
		ShipInterval: 20 * time.Millisecond,
		Seed:         5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := c.WaitForWorkers(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := shard.Supervise(context.Background(), dir, c.StartFunc(), shard.Options{
		Retries: 1, Backoff: 20 * time.Millisecond, Seed: 5,
	}); err != nil {
		t.Fatalf("supervise: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	mirror, local := readFile(t, mirrorJ), readFile(t, localJ)
	if !bytes.Equal(mirror, local) {
		t.Errorf("mirror journal (%d bytes) differs from the worker's (%d bytes)", len(mirror), len(local))
	}
	if valid := campaign.ValidPrefix(mirror); valid != int64(len(mirror)) {
		t.Errorf("mirror journal replays %d of its %d bytes", valid, len(mirror))
	}
	if got := mergedReport(t, dir); !bytes.Equal(got, ref) {
		t.Errorf("merged report differs from single-process run:\n--- ref\n%s\n--- got\n%s", ref, got)
	}
}

// stubWorker registers an HTTP stub as a worker and returns its
// registration and every assignment it received.
func stubWorker(t *testing.T, c *Coordinator) (RegisterResponse, func() []AssignRequest) {
	t.Helper()
	var mu sync.Mutex
	var got []AssignRequest
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req AssignRequest
		if r.URL.Path == PathAssign && readBody(w, r, &req) {
			mu.Lock()
			got = append(got, req)
			mu.Unlock()
		}
		writeJSONResp(w, AssignResponse{OK: true})
	}))
	t.Cleanup(stub.Close)
	env := HostEnv()
	fp, _ := Fingerprint(env)
	var reg RegisterResponse
	if err := postJSON(&http.Client{Timeout: 2 * time.Second}, c.URL()+PathRegister, RegisterRequest{
		Protocol: ProtocolVersion, Addr: stub.URL, Hostname: "stub", Env: env, EnvFingerprint: fp,
	}, &reg); err != nil {
		t.Fatal(err)
	}
	return reg, func() []AssignRequest {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(got)
	}
}

// TestSeedingCutsTornMirrorTail: a mirrored v2 journal with bytes past
// its CRC-valid prefix is cut to that prefix, fsynced, before StartFunc
// returns, and the seed carries the cut bytes. A journal that is not v2
// is seeded byte-for-byte as it is.
func TestSeedingCutsTornMirrorTail(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sweep")
	sw := buildSweep(t, dir, 2, 1)
	shardDir := filepath.Join(dir, shard.ShardDirName(0))
	interruptShard(t, shardDir, 100, 70)

	torn := filepath.Join(shard.UnitDir(shardDir, sw.Units[0].ID), campaign.JournalFile)
	valid := readFile(t, torn)
	if campaign.ValidPrefix(valid) != int64(len(valid)) {
		t.Fatal("fixture: interrupted journal is not clean")
	}
	if err := os.WriteFile(torn, append(slices.Clone(valid), 0xde, 0xad, 0xbe), 0o644); err != nil {
		t.Fatal(err)
	}
	foreign := filepath.Join(shard.UnitDir(shardDir, sw.Units[1].ID), campaign.JournalFile)
	if err := os.MkdirAll(filepath.Dir(foreign), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(foreign, []byte("{\"seq\":1}\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	var synced []string
	orig := syncFile
	t.Cleanup(func() { syncFile = orig })
	syncFile = func(f *os.File) error {
		synced = append(synced, f.Name())
		return f.Sync()
	}
	var log syncBuffer
	c, err := NewCoordinator(dir, CoordinatorOptions{Seed: 3, Log: &log})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, assigned := stubWorker(t, c)
	if _, err := c.StartFunc()(shardDir, 1); err != nil {
		t.Fatal(err)
	}

	if got := readFile(t, torn); !bytes.Equal(got, valid) {
		t.Errorf("mirror journal is %d bytes after seeding, want its %d-byte valid prefix", len(got), len(valid))
	}
	if !slices.Equal(synced, []string{torn}) {
		t.Errorf("seeding fsynced %q, want the cut journal %q", synced, torn)
	}
	if !strings.Contains(log.String(), "torn tail dropped") {
		t.Errorf("cut not logged:\n%s", log.String())
	}
	if got := readFile(t, foreign); string(got) != "{\"seq\":1}\n" {
		t.Errorf("non-v2 mirror journal changed: %q", got)
	}
	reqs := assigned()
	if len(reqs) != 1 {
		t.Fatalf("stub received %d assignments, want 1", len(reqs))
	}
	seed := map[string][]byte{}
	for _, fs := range reqs[0].Seed {
		seed[fs.Path] = fs.Data
	}
	rel := func(path string) string { r, _ := filepath.Rel(shardDir, path); return filepath.ToSlash(r) }
	if !bytes.Equal(seed[rel(torn)], valid) {
		t.Errorf("seed journal is %d bytes, want the %d-byte valid prefix", len(seed[rel(torn)]), len(valid))
	}
	if string(seed[rel(foreign)]) != "{\"seq\":1}\n" {
		t.Errorf("non-v2 journal seeded as %q", seed[rel(foreign)])
	}
}

// TestPrepareKeepsOnlyExtensions: a unit's local files survive an
// assignment only when each seeded file is a prefix of its local copy.
// A local journal that extends the mirror keeps its tail (a torn end
// cut off), while a divergent journal and a divergent manifest are
// replaced by the mirror's copies, and the unit's local result.json,
// which the mirror does not hold, goes with them.
func TestPrepareKeepsOnlyExtensions(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sweep")
	sw := buildSweep(t, dir, 2, 1)
	shardDir := filepath.Join(dir, shard.ShardDirName(0))
	u0, u1 := sw.Units[0].ID, sw.Units[1].ID
	unitFile := func(shardDir, unit, name string) string {
		return filepath.Join(shard.UnitDir(shardDir, unit), name)
	}

	// u0's mirror journal, then its extension: the same run resumed.
	interruptShard(t, shardDir, 100, 40)
	seedJ := readFile(t, unitFile(shardDir, u0, campaign.JournalFile))
	seedM := readFile(t, unitFile(shardDir, u0, campaign.ManifestFile))
	interruptShard(t, shardDir, 100, 90)
	extended := readFile(t, unitFile(shardDir, u0, campaign.JournalFile))
	if len(extended) <= len(seedJ) || !bytes.HasPrefix(extended, seedJ) {
		t.Fatal("fixture: resumed journal does not extend the first")
	}
	// u1: a different run's journal, which the mirror's does not prefix.
	other := filepath.Join(t.TempDir(), "other")
	if err := os.MkdirAll(other, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := shard.WriteJSON(filepath.Join(other, shard.ManifestFile), sw.Shards()[0]); err != nil {
		t.Fatal(err)
	}
	interruptShard(t, other, 100, 70)
	divergent := readFile(t, unitFile(other, u0, campaign.JournalFile))

	local := filepath.Join(t.TempDir(), "local")
	write := func(unit, name string, data []byte) {
		t.Helper()
		p := unitFile(local, unit, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(u0, campaign.ManifestFile, seedM)
	write(u0, campaign.JournalFile, append(slices.Clone(extended), 0x01, 0x02))
	write(u1, campaign.ManifestFile, []byte("{}\n"))
	write(u1, campaign.JournalFile, divergent)
	write(u1, shard.UnitResultFile, []byte("{\"n\":100}\n"))

	fs := func(unit, name string, data []byte) FileState {
		return FileState{Path: shard.UnitsDir + "/" + unit + "/" + name, Data: data, CRC: crc32.ChecksumIEEE(data)}
	}
	req := AssignRequest{SweepHash: sw.SweepHash, Shard: 0, Attempt: 2, Manifest: sw.Shards()[0], Seed: []FileState{
		fs(u0, campaign.ManifestFile, seedM), fs(u0, campaign.JournalFile, seedJ),
		fs(u1, campaign.ManifestFile, seedM), fs(u1, campaign.JournalFile, seedJ),
	}}
	if err := (&Worker{}).prepare(&job{dir: local}, req); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		unit, name string
		want       []byte
	}{
		{u0, campaign.ManifestFile, seedM},
		{u0, campaign.JournalFile, extended},
		{u1, campaign.ManifestFile, seedM},
		{u1, campaign.JournalFile, seedJ},
	} {
		if got := readFile(t, unitFile(local, c.unit, c.name)); !bytes.Equal(got, c.want) {
			t.Errorf("%s/%s: %d bytes after prepare, want %d", c.unit, c.name, len(got), len(c.want))
		}
	}
	if _, err := os.Stat(unitFile(local, u1, shard.UnitResultFile)); !os.IsNotExist(err) {
		t.Errorf("replaced unit kept its local result.json (stat: %v)", err)
	}
}

// TestChunkFencedAfterLeaseCheckRefused: a frame whose lease passed
// leaseFor but was fenced before the frame took the mirror lock — the
// shard was reassigned and seeded in between — is refused as stale and
// leaves the mirror as the new attempt's seed saw it.
func TestChunkFencedAfterLeaseCheckRefused(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sweep")
	sw := buildSweep(t, dir, 1, 1)
	c, err := NewCoordinator(dir, CoordinatorOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	reg, _ := stubWorker(t, c)
	shardDir := filepath.Join(dir, shard.ShardDirName(0))
	start := c.StartFunc()
	if _, err := start(shardDir, 1); err != nil {
		t.Fatal(err)
	}
	l, reason := c.leaseFor(sw.SweepHash, 0, 1, reg.WorkerID)
	if l == nil {
		t.Fatalf("live attempt refused: %s", reason)
	}
	if _, err := start(shardDir, 2); err != nil {
		t.Fatal(err)
	}
	data := []byte("late")
	resp := c.applyChunk(l, ChunkFrame{WorkerID: reg.WorkerID, SweepHash: sw.SweepHash, Shard: 0, Attempt: 1,
		Path: shard.UnitsDir + "/" + sw.Units[0].ID + "/" + campaign.JournalFile, Data: data, CRC: crc32.ChecksumIEEE(data)})
	if resp.OK || !resp.Stale {
		t.Fatalf("frame of a fenced lease applied: %+v", resp)
	}
	if _, err := os.Stat(filepath.Join(shard.UnitDir(shardDir, sw.Units[0].ID), campaign.JournalFile)); !os.IsNotExist(err) {
		t.Fatalf("fenced frame reached the mirror (stat: %v)", err)
	}
}
