package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/rules"
	"repro/internal/shard"
)

// testEnv is the Rule 9 block every test unit records (the unit env is
// shared; host envs are what distinguish workers).
var testEnv = rules.Environment{
	Processor:        "simulated 64-rank cluster",
	Network:          "simulated fat-tree",
	InputAndCode:     "internal/remote tests",
	MeasurementSetup: "deterministic seeded measure source",
}

type unitCfg struct {
	Name string  `json:"name"`
	Base float64 `json:"base"`
}

// testRunner rebuilds the deterministic measurement for a unit; the
// same unit yields the same samples on every worker (the invariant the
// whole transport leans on). throttle slows samples so tests can cut a
// partition mid-unit; calls counts measure invocations; samples
// overrides the plan's 12 samples per unit (more than 62 make a unit
// journal span several 64-record chunks).
type testRunner struct {
	throttle time.Duration
	calls    *atomic.Int64
	samples  int
}

func (r testRunner) Setup(u shard.Unit) (campaign.Manifest, bench.Plan, func() (float64, error), error) {
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
		if r.throttle > 0 {
			time.Sleep(r.throttle)
		}
		if r.calls != nil {
			r.calls.Add(1)
		}
		return cfg.Base * (1 + 0.05*rng.Float64()), nil
	}
	plan := bench.Plan{Warmup: 2, MinSamples: 12}
	if r.samples > 0 {
		plan.MinSamples = r.samples
	}
	return man, plan, measure, nil
}

// syncBuffer is a bytes.Buffer safe for a worker's concurrent log
// writes.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func testFaultFP(t testing.TB) string {
	t.Helper()
	fp, err := campaign.HashJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

func makeUnits(t testing.TB, k int) []shard.Unit {
	t.Helper()
	units := make([]shard.Unit, k)
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
		units[i] = shard.Unit{
			ID:         fmt.Sprintf("u%02d-%s", i, cfg.Name),
			Seed:       42 + uint64(i),
			ConfigHash: ch,
			Config:     raw,
		}
	}
	return units
}

func buildSweep(t testing.TB, dir string, k, n int) shard.SweepManifest {
	t.Helper()
	sw, err := shard.NewSweep("remote-sweep", makeUnits(t, k), testFaultFP(t), testEnv, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := shard.Create(dir, sw); err != nil {
		t.Fatal(err)
	}
	return sw
}

// referenceReport runs the identical sweep single-process and returns
// the canonical report bytes — what every distributed run must equal.
func referenceReport(t *testing.T, k int) []byte {
	t.Helper()
	return referenceReportWith(t, k, testRunner{})
}

// referenceReportWith is referenceReport with a chosen runner.
func referenceReportWith(t *testing.T, k int, r testRunner) []byte {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "ref")
	sw := buildSweep(t, dir, k, 1)
	for i := range sw.Shards() {
		sd := filepath.Join(dir, shard.ShardDirName(i))
		if _, err := shard.ExecShard(context.Background(), sd, r, shard.ExecOptions{}); err != nil {
			t.Fatalf("reference shard %d: %v", i, err)
		}
	}
	return mergedReport(t, dir)
}

func mergedReport(t *testing.T, dir string) []byte {
	t.Helper()
	rep, err := shard.Merge(dir)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	var buf bytes.Buffer
	if err := rep.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// hostBEnv is a second, distinct Rule 9 host record so single-machine
// tests exercise genuine cross-host stratification.
func hostBEnv() rules.Environment {
	env := HostEnv()
	env.MeasurementSetup = "scibench worker on host-b (test double)"
	return env
}

// TestLoopbackTwoWorkersFaultyByteIdentity is the acceptance backbone:
// a sweep distributed over two workers on loopback HTTP, with injected
// message loss, delay, and duplication on both links, must merge to the
// byte-identical report of the single-process run — with per-host
// fingerprints recorded and stratified.
func TestLoopbackTwoWorkersFaultyByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("drives wall-clock supervision loops")
	}
	ref := referenceReport(t, 6)

	dir := filepath.Join(t.TempDir(), "sweep")
	buildSweep(t, dir, 6, 2)
	c, err := NewCoordinator(dir, CoordinatorOptions{Seed: 7, AssignRetries: 6, HeartbeatTimeout: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	faulty := func(seed uint64) *FaultTransport {
		ft := NewFaultTransport(seed, nil)
		ft.DropProb = 0.12
		ft.DelayProb = 0.25
		ft.Delay = 2 * time.Millisecond
		ft.DupProb = 0.12
		return ft
	}
	envB := hostBEnv()
	for i, opt := range []WorkerOptions{
		{Hostname: "host-a"},
		{Hostname: "host-b", Env: &envB},
	} {
		opt.Coordinator = c.URL()
		opt.WorkDir = filepath.Join(t.TempDir(), fmt.Sprintf("w%d", i))
		opt.Runner = testRunner{}
		opt.ShipInterval = 25 * time.Millisecond
		opt.Seed = uint64(100 + i)
		opt.Transport = faulty(uint64(1000 + i))
		w, err := StartWorker(opt)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
	}
	if err := c.WaitForWorkers(context.Background(), 2); err != nil {
		t.Fatal(err)
	}

	statuses, err := shard.Supervise(context.Background(), dir, c.StartFunc(), shard.Options{
		Retries: 4,
		Backoff: 50 * time.Millisecond,
		Seed:    7,
	})
	if err != nil {
		t.Fatalf("supervise: %v", err)
	}
	for _, st := range statuses {
		if st.Lost {
			t.Fatalf("shard %d lost under injected faults: %+v", st.Shard, st)
		}
	}

	got := mergedReport(t, dir)
	if !bytes.Equal(got, ref) {
		t.Errorf("distributed report differs from single-process run:\n--- ref\n%s\n--- got\n%s", ref, got)
	}
	rep, err := shard.Merge(dir)
	if err != nil {
		t.Fatal(err)
	}
	hosts := map[string]bool{}
	for _, s := range rep.Shards {
		if s.HostFingerprint == "" || s.Host == "" {
			t.Errorf("shard %d merged without host provenance: %+v", s.Index, s)
		}
		hosts[s.HostFingerprint] = true
	}
	if len(hosts) == 2 && len(rep.Strata) != 2 {
		t.Errorf("two distinct hosts measured but %d strata recorded", len(rep.Strata))
	}
}

// TestPartitionReassignmentByteIdentity kills the link to the worker
// holding the only shard mid-unit. The coordinator must see the stall,
// fence the attempt, reassign to the second worker — which resumes from
// the shipped journal rather than re-measuring — and the healed
// zombie's late chunks must be refused. The merged report stays
// byte-identical to the single-process run.
func TestPartitionReassignmentByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("drives wall-clock supervision loops")
	}
	// 100 samples + 2 warmups: each unit journals 102 records, one
	// sealed 64-record chunk and a 38-record final chunk.
	const k, samples, perUnit = 4, 100, 102
	ref := referenceReportWith(t, k, testRunner{samples: samples})

	dir := filepath.Join(t.TempDir(), "sweep")
	buildSweep(t, dir, k, 1)
	c, err := NewCoordinator(dir, CoordinatorOptions{Seed: 9, HeartbeatTimeout: 700 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ftA := NewFaultTransport(11, nil)
	ftA.DropProb = 0.05
	var callsA, callsB atomic.Int64
	var logB syncBuffer
	mkWorker := func(name string, ft http.RoundTripper, calls *atomic.Int64, env *rules.Environment, log io.Writer) *Worker {
		w, err := StartWorker(WorkerOptions{
			Coordinator:  c.URL(),
			WorkDir:      filepath.Join(t.TempDir(), name),
			Runner:       testRunner{throttle: 5 * time.Millisecond, calls: calls, samples: samples},
			Hostname:     name,
			Env:          env,
			Log:          log,
			ShipInterval: 25 * time.Millisecond,
			Seed:         3,
			Transport:    ft,
		})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	wA := mkWorker("host-a", ftA, &callsA, nil, nil)
	defer wA.Close()
	envB := hostBEnv()
	wB := mkWorker("host-b", nil, &callsB, &envB, &logB)
	defer wB.Close()
	if err := c.WaitForWorkers(context.Background(), 2); err != nil {
		t.Fatal(err)
	}

	// Cut the link once the mirror proves worker A is mid-shard: the
	// first unit fully shipped and verified-complete, the second unit's
	// first 64-record chunk shipped and sealed, its remaining records
	// still being measured.
	shardDir := filepath.Join(dir, shard.ShardDirName(0))
	u0 := filepath.Join(shardDir, shard.UnitsDir, "u00-cfg-00", shard.UnitResultFile)
	u1 := filepath.Join(shardDir, shard.UnitsDir, "u01-cfg-01")
	partitioned := make(chan struct{})
	go func() {
		defer close(partitioned)
		deadline := time.Now().Add(20 * time.Second)
		for time.Now().Before(deadline) {
			if _, err := os.Stat(u0); err == nil {
				if _, st, err := campaign.Load(u1); err == nil && len(st.Records) > 0 {
					ftA.Partition()
					return
				}
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	statuses, err := shard.Supervise(context.Background(), dir, c.StartFunc(), shard.Options{
		Retries: 2,
		Backoff: 50 * time.Millisecond,
		Seed:    9,
	})
	if err != nil {
		t.Fatalf("supervise: %v", err)
	}
	<-partitioned
	if !ftA.Partitioned() {
		t.Fatal("partition trigger never fired — the shard completed before mid-unit state was observable")
	}
	st := statuses[0]
	if st.Lost {
		t.Fatalf("shard lost despite a second worker: %+v", st)
	}
	if st.Attempts < 2 || st.Stalls < 1 {
		t.Fatalf("partition did not force a stall reassignment: %+v", st)
	}

	// The replacement worker resumed from the mirror: it measured
	// something, but strictly less than the whole sweep (the completed
	// first unit shipped before the cut is never re-measured).
	full := int64(k * perUnit)
	if callsB.Load() == 0 {
		t.Fatal("worker B measured nothing; reassignment never reached it")
	}
	if callsB.Load() > full-perUnit {
		t.Errorf("worker B re-measured completed observations: %d calls, want ≤ %d", callsB.Load(), full-perUnit)
	}
	// ...and it resumed the second unit from the mirrored sealed chunk:
	// those 62 retained samples were recovered (replayed only to restore
	// the PRNG position), not measured afresh.
	if want := "unit u01-cfg-01: resumed (62 prior samples, "; !strings.Contains(logB.String(), want) {
		t.Errorf("worker B did not resume the interrupted unit from its sealed chunk (want %q):\n%s", want, logB.String())
	}

	// Completion provenance: attempt 2, worker B's host.
	d, ok := shard.LoadDone(shardDir)
	if !ok || d.Attempt != 2 {
		t.Fatalf("done sentinel: %+v ok=%v, want attempt 2", d, ok)
	}
	if h, ok := shard.LoadHost(shardDir); !ok || h.Hostname != "host-b" {
		t.Fatalf("host record: %+v ok=%v, want host-b", h, ok)
	}

	// Heal the zombie's link: its late traffic must be refused as stale
	// and its executor must stand down, with the mirror untouched.
	before := mergedReport(t, dir)
	ftA.Heal()
	deadline := time.Now().Add(10 * time.Second)
	for {
		wA.mu.Lock()
		n := len(wA.jobs)
		wA.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("zombie worker A never stood down after heal")
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond) // let any straggler frames land (and be refused)
	after := mergedReport(t, dir)
	if !bytes.Equal(before, after) {
		t.Error("zombie traffic after heal changed the merged report")
	}
	if !bytes.Equal(after, ref) {
		t.Errorf("post-partition report differs from single-process run:\n--- ref\n%s\n--- got\n%s", ref, after)
	}
}

// wedgeRunner is a testRunner whose measure call number `at`, counted
// across the worker, blocks until release is closed: a measurement that
// hangs inside a live worker, which keeps shipping and reporting its
// unchanged progress count.
type wedgeRunner struct {
	testRunner
	at      int64
	n       *atomic.Int64
	release chan struct{}
}

func (r wedgeRunner) Setup(u shard.Unit) (campaign.Manifest, bench.Plan, func() (float64, error), error) {
	man, plan, measure, err := r.testRunner.Setup(u)
	if err != nil {
		return man, plan, measure, err
	}
	return man, plan, func() (float64, error) {
		if r.n.Add(1) == r.at {
			<-r.release
		}
		return measure()
	}, nil
}

// TestStallFencedAndReassignedByteIdentity wedges one measure call
// mid-unit on the worker holding the only shard. That worker stays
// reachable and keeps posting its progress count, which no longer
// advances. The coordinator must fence the attempt as stalled after the
// liveness timeout and reassign it to the second worker, which resumes
// from the mirrored sealed chunk; the merged report stays
// byte-identical to the single-process run. The bounded context makes
// the test fail, not hang, if unchanged reports re-armed the timer.
func TestStallFencedAndReassignedByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("drives wall-clock supervision loops")
	}
	// 100 samples + 2 warmups: each unit journals 102 records, one
	// sealed 64-record chunk and a 38-record final chunk.
	const k, samples, perUnit = 4, 100, 102
	ref := referenceReportWith(t, k, testRunner{samples: samples})

	dir := filepath.Join(t.TempDir(), "sweep")
	buildSweep(t, dir, k, 1)
	const timeout = 500 * time.Millisecond
	c, err := NewCoordinator(dir, CoordinatorOptions{Seed: 21, HeartbeatTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Worker A (registered first, so it gets attempt 1) wedges before
	// measure call perUnit+80: inside the second unit, after 79 records
	// — the first chunk sealed, 15 records not.
	release := make(chan struct{})
	unwedge := sync.OnceFunc(func() { close(release) })
	var logB syncBuffer
	mkWorker := func(name string, r shard.UnitRunner, log io.Writer) *Worker {
		w, err := StartWorker(WorkerOptions{
			Coordinator:  c.URL(),
			WorkDir:      filepath.Join(t.TempDir(), name),
			Runner:       r,
			Hostname:     name,
			Log:          log,
			ShipInterval: 20 * time.Millisecond,
			Seed:         5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	wA := mkWorker("host-a", wedgeRunner{testRunner{samples: samples}, perUnit + 80, new(atomic.Int64), release}, nil)
	defer wA.Close()
	defer unwedge() // before wA.Close, which waits for the wedged job
	wB := mkWorker("host-b", testRunner{samples: samples}, &logB)
	defer wB.Close()
	if err := c.WaitForWorkers(context.Background(), 2); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	statuses, err := shard.Supervise(ctx, dir, c.StartFunc(), shard.Options{
		Retries: 2,
		Backoff: 50 * time.Millisecond,
		Seed:    21,
	})
	if err != nil {
		t.Fatalf("supervise (a wedged attempt that never stalls runs into the deadline): %v", err)
	}
	st := statuses[0]
	if st.Lost || st.Attempts != 2 || st.Stalls != 1 || st.Crashes != 0 {
		t.Fatalf("want one stall, then completion on the second worker: %+v", st)
	}
	if want := "unit u01-cfg-01: resumed (62 prior samples, "; !strings.Contains(logB.String(), want) {
		t.Errorf("worker B did not resume the wedged unit from its sealed chunk (want %q):\n%s", want, logB.String())
	}
	shardDir := filepath.Join(dir, shard.ShardDirName(0))
	if d, ok := shard.LoadDone(shardDir); !ok || d.Attempt != 2 {
		t.Fatalf("done sentinel: %+v ok=%v, want attempt 2", d, ok)
	}
	if h, ok := shard.LoadHost(shardDir); !ok || h.Hostname != "host-b" {
		t.Fatalf("host record: %+v ok=%v, want host-b", h, ok)
	}

	// Unwedge the fenced attempt: it stands down without touching the
	// mirror.
	before := mergedReport(t, dir)
	unwedge()
	deadline := time.Now().Add(10 * time.Second)
	for {
		wA.mu.Lock()
		n := len(wA.jobs)
		wA.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the fenced attempt never stood down after its measure returned")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if after := mergedReport(t, dir); !bytes.Equal(after, before) {
		t.Error("the fenced attempt changed the merged report")
	}
	if !bytes.Equal(before, ref) {
		t.Errorf("report after stall + reassignment differs from single-process run:\n--- ref\n%s\n--- got\n%s", ref, before)
	}
}

// TestLeaseTimerResetsOnlyOnProgress drives one lease's liveness at the
// wire level with a stub worker. Reports whose count advances keep the
// attempt alive for several timeouts; reports that repeat the count do
// not, and the attempt is fenced as stalled no sooner than one timeout
// after the last advance, with a cancel sent to the worker.
func TestLeaseTimerResetsOnlyOnProgress(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sweep")
	sw := buildSweep(t, dir, 2, 1)
	const timeout = 300 * time.Millisecond
	c, err := NewCoordinator(dir, CoordinatorOptions{Seed: 3, HeartbeatTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cancels := make(chan CancelRequest, 4)
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == PathCancel {
			var req CancelRequest
			if readBody(w, r, &req) {
				cancels <- req
			}
		}
		writeJSONResp(w, AssignResponse{OK: true})
	}))
	defer stub.Close()
	client := &http.Client{Timeout: 2 * time.Second}
	var reg RegisterResponse
	env := HostEnv()
	fp, _ := Fingerprint(env)
	if err := postJSON(client, c.URL()+PathRegister, RegisterRequest{
		Protocol: ProtocolVersion, Addr: stub.URL, Hostname: "stub", Env: env, EnvFingerprint: fp,
	}, &reg); err != nil {
		t.Fatal(err)
	}
	h, err := c.StartFunc()(filepath.Join(dir, shard.ShardDirName(0)), 1)
	if err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() { waited <- h.Wait() }()
	report := func(seq uint64) ChunkResponse {
		t.Helper()
		var resp ChunkResponse
		if err := postJSON(client, c.URL()+PathHeartbeat, HeartbeatMsg{
			WorkerID: reg.WorkerID, SweepHash: sw.SweepHash, Shard: 0, Attempt: 1, Seq: seq,
		}, &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Advancing reports for three timeouts: the attempt stays live.
	tick := time.NewTicker(timeout / 10)
	defer tick.Stop()
	var seq uint64
	var lastAdvance time.Time
	for end := time.Now().Add(3 * timeout); time.Now().Before(end); <-tick.C {
		seq++
		lastAdvance = time.Now() // the timer re-arms after this instant
		if resp := report(seq); !resp.OK {
			t.Fatalf("advancing report %d refused: %+v", seq, resp)
		}
		select {
		case err := <-waited:
			t.Fatalf("attempt fenced while its count advanced (seq %d): %v", seq, err)
		default:
		}
	}

	// The same count from here on: the attempt must stall.
	var err2 error
	bound := time.After(10 * timeout)
wait:
	for {
		select {
		case err2 = <-waited:
			break wait
		case <-bound:
			t.Fatalf("attempt still live %s after its count stopped advancing", time.Since(lastAdvance))
		case <-tick.C:
			report(seq)
		}
	}
	if since := time.Since(lastAdvance); since < timeout {
		t.Errorf("attempt fenced %s after its last advance, before the %s timeout", since, timeout)
	}
	if !errors.Is(err2, shard.ErrStalled) {
		t.Fatalf("Wait = %v, want an error wrapping shard.ErrStalled", err2)
	}
	select {
	case req := <-cancels:
		if req.Shard != 0 || req.Attempt != 1 || req.SweepHash != sw.SweepHash {
			t.Errorf("cancel for the wrong attempt: %+v", req)
		}
	case <-time.After(5 * time.Second):
		t.Error("no cancel reached the worker of the stalled attempt")
	}
	if resp := report(seq + 1); resp.OK || !resp.Stale {
		t.Errorf("report for the stalled attempt accepted: %+v", resp)
	}
}

// TestAllWorkersUnreachableDegrades: when no worker can be reached, the
// retry budget exhausts, the shard is reported lost, and the merge
// carries the loss explicitly (Rule 4) with a degraded verdict.
func TestAllWorkersUnreachableDegrades(t *testing.T) {
	if testing.Short() {
		t.Skip("drives wall-clock supervision loops")
	}
	dir := filepath.Join(t.TempDir(), "sweep")
	buildSweep(t, dir, 2, 1)
	c, err := NewCoordinator(dir, CoordinatorOptions{Seed: 5, AssignRetries: 2, HeartbeatTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ft := NewFaultTransport(1, nil)
	w, err := StartWorker(WorkerOptions{
		Coordinator:  c.URL(),
		WorkDir:      filepath.Join(t.TempDir(), "w"),
		Runner:       testRunner{},
		Hostname:     "host-a",
		ShipInterval: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := c.WaitForWorkers(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	// Partition from the start: every assignment RPC fails.
	ft.Partition()
	c.client.Transport = ft

	statuses, err := shard.Supervise(context.Background(), dir, c.StartFunc(), shard.Options{
		Retries: 1,
		Backoff: 30 * time.Millisecond,
		Seed:    5,
	})
	if err != nil {
		t.Fatalf("supervise: %v", err)
	}
	if !statuses[0].Lost {
		t.Fatalf("unreachable worker should lose the shard: %+v", statuses[0])
	}
	rep, err := shard.Merge(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stop != bench.StopDegraded || rep.UnitsLost != 2 {
		t.Fatalf("merge verdict = %q, lost %d; want degraded with 2 lost", rep.Stop, rep.UnitsLost)
	}
	found := false
	for _, f := range rep.Findings {
		if f.Rule == 4 {
			found = true
		}
	}
	if !found {
		t.Error("no Rule 4 loss finding for the abandoned units")
	}
}

// TestZombieFencing drives the fencing protocol at the wire level with
// a stub worker: once the supervisor kills an attempt, every message
// carrying its attempt number — chunk, heartbeat, completion — must be
// refused and the mirror left untouched.
func TestZombieFencing(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sweep")
	sw := buildSweep(t, dir, 2, 1)
	c, err := NewCoordinator(dir, CoordinatorOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Stub worker: accepts every assignment, runs nothing.
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSONResp(w, AssignResponse{OK: true})
	}))
	defer stub.Close()
	client := &http.Client{Timeout: 2 * time.Second}
	var reg RegisterResponse
	env := HostEnv()
	fp, _ := Fingerprint(env)
	if err := postJSON(client, c.URL()+PathRegister, RegisterRequest{
		Protocol: ProtocolVersion, Addr: stub.URL, Hostname: "stub", Env: env, EnvFingerprint: fp,
	}, &reg); err != nil {
		t.Fatal(err)
	}
	if reg.SweepHash != sw.SweepHash {
		t.Fatalf("registration sweep hash %s, want %s", reg.SweepHash, sw.SweepHash)
	}

	start := c.StartFunc()
	h1, err := start(filepath.Join(dir, shard.ShardDirName(0)), 1)
	if err != nil {
		t.Fatal(err)
	}

	chunk := func(attempt int, path string, off int64, data []byte) ChunkResponse {
		t.Helper()
		var resp ChunkResponse
		if err := postJSON(client, c.URL()+PathChunk, ChunkFrame{
			WorkerID: reg.WorkerID, SweepHash: sw.SweepHash, Shard: 0, Attempt: attempt,
			Path: path, Off: off, Data: data, CRC: crc32.ChecksumIEEE(data),
		}, &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	jpath := shard.UnitsDir + "/" + sw.Units[0].ID + "/" + campaign.JournalFile

	if resp := chunk(1, jpath, 0, []byte("alive\n")); !resp.OK {
		t.Fatalf("live attempt's chunk refused: %+v", resp)
	}
	mirror := filepath.Join(dir, shard.ShardDirName(0), filepath.FromSlash(jpath))
	before, err := os.ReadFile(mirror)
	if err != nil {
		t.Fatal(err)
	}

	// Supervisor kills attempt 1 (stall, partition — reason irrelevant).
	if err := h1.Kill(); err != nil {
		t.Fatal(err)
	}
	if resp := chunk(1, jpath, int64(len(before)), []byte("zombie\n")); resp.OK || !resp.Stale {
		t.Fatalf("killed attempt's chunk accepted: %+v", resp)
	}
	var hbResp ChunkResponse
	if err := postJSON(client, c.URL()+PathHeartbeat, HeartbeatMsg{
		WorkerID: reg.WorkerID, SweepHash: sw.SweepHash, Shard: 0, Attempt: 1,
		Seq: 99,
	}, &hbResp); err != nil {
		t.Fatal(err)
	}
	if hbResp.OK || !hbResp.Stale {
		t.Fatalf("killed attempt's heartbeat accepted: %+v", hbResp)
	}
	var doneResp DoneResponse
	if err := postJSON(client, c.URL()+PathDone, DoneRequest{
		WorkerID: reg.WorkerID, SweepHash: sw.SweepHash, Shard: 0, Attempt: 1,
		Done: shard.ShardDone{Shard: 0, SweepHash: sw.SweepHash, Attempt: 1},
	}, &doneResp); err != nil {
		t.Fatal(err)
	}
	if doneResp.OK || !doneResp.Stale {
		t.Fatalf("killed attempt's completion accepted: %+v", doneResp)
	}

	// Reassignment: attempt 2 owns the shard; attempt 1 frames stay dead.
	if _, err := start(filepath.Join(dir, shard.ShardDirName(0)), 2); err != nil {
		t.Fatal(err)
	}
	if resp := chunk(1, jpath, int64(len(before)), []byte("zombie\n")); resp.OK || !resp.Stale {
		t.Fatalf("stale attempt accepted after reassignment: %+v", resp)
	}
	if resp := chunk(2, jpath, int64(len(before)), []byte("successor\n")); !resp.OK {
		t.Fatalf("successor attempt refused: %+v", resp)
	}
	after, err := os.ReadFile(mirror)
	if err != nil {
		t.Fatal(err)
	}
	want := string(before) + "successor\n"
	if string(after) != want {
		t.Fatalf("mirror corrupted by zombie: %q, want %q", after, want)
	}
}

// TestAssignRefusesNonCampaignSeedPath: an assignment seed carries only
// unit campaign files. A seed for any other path — such as the
// heartbeat.json earlier protocol versions mirrored — is refused before
// the worker writes anything or starts the attempt.
func TestAssignRefusesNonCampaignSeedPath(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sweep")
	sw := buildSweep(t, dir, 2, 1)
	c, err := NewCoordinator(dir, CoordinatorOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	work := filepath.Join(t.TempDir(), "w")
	w, err := StartWorker(WorkerOptions{Coordinator: c.URL(), WorkDir: work, Runner: testRunner{}})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	data := []byte(`{"seq":7}`)
	var resp AssignResponse
	if err := postJSON(&http.Client{Timeout: 2 * time.Second}, w.URL()+PathAssign, AssignRequest{
		SweepHash: sw.SweepHash, Shard: 0, Attempt: 1, Manifest: sw.Shards()[0],
		Seed: []FileState{{Path: "heartbeat.json", Data: data, CRC: crc32.ChecksumIEEE(data)}},
	}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.OK || !strings.Contains(resp.Refused, `seed path "heartbeat.json" refused`) {
		t.Fatalf("heartbeat.json seed not refused: %+v", resp)
	}
	w.mu.Lock()
	n := len(w.jobs)
	w.mu.Unlock()
	if n != 0 {
		t.Fatalf("refused assignment started %d job(s)", n)
	}
	if entries, _ := os.ReadDir(work); len(entries) != 0 {
		t.Fatalf("refused assignment wrote into the work dir: %v", entries)
	}
}

// TestChunkApplySemantics pins the mirror's apply rules: in-order
// append, idempotent duplicates and refused gaps.
func TestChunkApplySemantics(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, shard.ShardDirName(0)), 0o755); err != nil {
		t.Fatal(err)
	}
	c := &Coordinator{sweepDir: dir}
	path := shard.UnitsDir + "/u00-x/" + campaign.JournalFile
	frame := func(off int64, data []byte) ChunkFrame {
		return ChunkFrame{WorkerID: "w000", Shard: 0, Attempt: 1, Path: path,
			Off: off, Data: data, CRC: crc32.ChecksumIEEE(data)}
	}
	l := &lease{}
	if resp := c.applyChunk(l, frame(0, []byte("aaaa"))); !resp.OK || resp.ResumeOff != 4 {
		t.Fatalf("initial append: %+v", resp)
	}
	if resp := c.applyChunk(l, frame(4, []byte("bbbb"))); !resp.OK || resp.ResumeOff != 8 {
		t.Fatalf("sequential append: %+v", resp)
	}
	// Duplicate delivery: acknowledged, not rewritten.
	if resp := c.applyChunk(l, frame(4, []byte("XXXX"))); !resp.OK || resp.ResumeOff != 8 {
		t.Fatalf("duplicate: %+v", resp)
	}
	// Gap: refused with the authoritative resume offset.
	if resp := c.applyChunk(l, frame(12, []byte("cccc"))); resp.OK || resp.ResumeOff != 8 {
		t.Fatalf("gap: %+v", resp)
	}
	got, err := os.ReadFile(filepath.Join(dir, shard.ShardDirName(0), filepath.FromSlash(path)))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "aaaabbbb" {
		t.Fatalf("mirror = %q, want aaaabbbb", got)
	}
}

// TestMirrorAppendsAreDurable pins that the mirror fsyncs before it
// acknowledges: the file on every append, plus each directory that
// gained an entry when a unit's file is first created. A failed fsync
// refuses the frame, so the worker re-ships it. Each of those syncs is
// one observation of remote.mirror_fsync_us.
func TestMirrorAppendsAreDurable(t *testing.T) {
	dir := t.TempDir()
	shardDir := filepath.Join(dir, shard.ShardDirName(0))
	if err := os.MkdirAll(filepath.Join(shardDir, shard.UnitsDir), 0o755); err != nil {
		t.Fatal(err)
	}
	var synced []string
	var failSync error
	orig := syncFile
	t.Cleanup(func() { syncFile = orig })
	syncFile = func(f *os.File) error {
		rel, err := filepath.Rel(dir, f.Name())
		if err != nil {
			t.Fatal(err)
		}
		synced = append(synced, filepath.ToSlash(rel))
		return failSync
	}
	c := &Coordinator{sweepDir: dir}
	path := shard.UnitsDir + "/u00-x/" + campaign.JournalFile
	frame := func(off int64, data []byte) ChunkFrame {
		return ChunkFrame{WorkerID: "w000", Shard: 0, Attempt: 1, Path: path,
			Off: off, Data: data, CRC: crc32.ChecksumIEEE(data)}
	}
	step := func(name string, f ChunkFrame, wantOK bool, want ...string) {
		t.Helper()
		synced = nil
		before := telMirrorFsync.Snapshot().Count
		if resp := c.applyChunk(&lease{}, f); resp.OK != wantOK {
			t.Fatalf("%s: %+v, want OK=%v", name, resp, wantOK)
		}
		if !slices.Equal(synced, want) {
			t.Fatalf("%s: fsynced %q, want %q", name, synced, want)
		}
		if got := telMirrorFsync.Snapshot().Count - before; got != len(synced) {
			t.Fatalf("%s: remote.mirror_fsync_us counted %d syncs, want %d", name, got, len(synced))
		}
	}
	sd := shard.ShardDirName(0)
	file := sd + "/" + path
	step("create", frame(0, []byte("aaaa")), true,
		sd+"/"+shard.UnitsDir, file, sd+"/"+shard.UnitsDir+"/u00-x")
	step("append", frame(4, []byte("bbbb")), true, file)
	step("duplicate", frame(4, []byte("bbbb")), true)
	failSync = errors.New("injected fsync failure")
	step("failed fsync", frame(8, []byte("cc")), false, file)
	failSync = nil
	step("re-shipped", frame(8, []byte("cc")), true, file)
	got, err := os.ReadFile(filepath.Join(dir, filepath.FromSlash(file)))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "aaaabbbbcc" {
		t.Fatalf("mirror = %q, want aaaabbbbcc", got)
	}
}

func TestChunkFrameValidate(t *testing.T) {
	good := ChunkFrame{Shard: 0, Attempt: 1, Path: "units/u0/journal.jsonl",
		Data: []byte("x"), CRC: crc32.ChecksumIEEE([]byte("x"))}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid frame refused: %v", err)
	}
	for name, f := range map[string]ChunkFrame{
		"corrupt CRC":    {Attempt: 1, Path: "units/u0/journal.jsonl", Data: []byte("x"), CRC: 1},
		"traversal":      {Attempt: 1, Path: "../../etc/passwd", CRC: 0},
		"absolute":       {Attempt: 1, Path: "/etc/passwd", CRC: 0},
		"wrong file":     {Attempt: 1, Path: "units/u0/done.json", CRC: 0},
		"deep path":      {Attempt: 1, Path: "units/u0/x/journal.jsonl", CRC: 0},
		"negative off":   {Attempt: 1, Path: "units/u0/journal.jsonl", Off: -1, CRC: 0},
		"zero attempt":   {Attempt: 0, Path: "units/u0/journal.jsonl", CRC: 0},
		"dotted unit":    {Attempt: 1, Path: "units/../journal.jsonl", CRC: 0},
		"oversize chunk": {Attempt: 1, Path: "units/u0/journal.jsonl", Data: make([]byte, MaxChunk+1), CRC: crc32.ChecksumIEEE(make([]byte, MaxChunk+1))},
	} {
		if err := f.Validate(); err == nil {
			t.Errorf("%s: frame accepted", name)
		}
	}
}

// TestSeededBackoffDeterministic pins the retry schedule the transport's
// network loops share with shard reassignment, at the transport's keys
// (shard<<32 | attempt) and bases.
func TestSeededBackoffDeterministic(t *testing.T) {
	const key = 2 // shard 0 (high word), attempt 2
	a := shard.SeededBackoff(7, key, 3, 50*time.Millisecond, 5*time.Second)
	b := shard.SeededBackoff(7, key, 3, 50*time.Millisecond, 5*time.Second)
	if a != b {
		t.Fatalf("same inputs, different backoff: %s vs %s", a, b)
	}
	if c := shard.SeededBackoff(8, key, 3, 50*time.Millisecond, 5*time.Second); c == a {
		t.Error("different seeds produced identical jitter (suspicious)")
	}
	base := 200 * time.Millisecond // try 3 → base 50ms<<2
	if a < base || a >= base+base/2 {
		t.Errorf("backoff %s outside [%s, %s)", a, base, base+base/2)
	}
	if got := shard.SeededBackoff(7, 0, 50, 50*time.Millisecond, time.Second); got >= 1500*time.Millisecond {
		t.Errorf("ceiling not applied: %s", got)
	}
}

func TestFaultTransportDeterministic(t *testing.T) {
	decisions := func() []bool {
		ft := NewFaultTransport(99, nil)
		ft.DropProb = 0.5
		var out []bool
		for i := 0; i < 64; i++ {
			out = append(out, ft.draw() < ft.DropProb)
		}
		return out
	}
	a, b := decisions(), decisions()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs across same-seed runs", i)
		}
	}
}

// TestRemoteShipmentV2ByteIdentity runs a sweep, whose units journal in
// the chunked binary v2 format, through the full remote transport: the
// coordinator's byte-oriented chunk ingestion must carry the binary
// chunks intact, the
// mirrored unit journals must replay as clean v2, and the merged report
// must be byte-identical to the single-process reference.
func TestRemoteShipmentV2ByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("drives wall-clock supervision loops")
	}
	const k = 4
	ref := referenceReport(t, k)

	dir := filepath.Join(t.TempDir(), "sweep")
	sw, err := shard.NewSweep("remote-sweep", makeUnits(t, k), testFaultFP(t), testEnv, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := shard.Create(dir, sw); err != nil {
		t.Fatal(err)
	}
	c, err := NewCoordinator(dir, CoordinatorOptions{Seed: 11, HeartbeatTimeout: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	w, err := StartWorker(WorkerOptions{
		Coordinator:  c.URL(),
		Hostname:     "host-a",
		WorkDir:      filepath.Join(t.TempDir(), "w0"),
		Runner:       testRunner{},
		ShipInterval: 25 * time.Millisecond,
		Seed:         100,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := c.WaitForWorkers(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	statuses, err := shard.Supervise(context.Background(), dir, c.StartFunc(), shard.Options{
		Retries: 2,
		Backoff: 50 * time.Millisecond,
		Seed:    11,
	})
	if err != nil {
		t.Fatalf("supervise: %v", err)
	}
	for _, st := range statuses {
		if st.Lost {
			t.Fatalf("shard %d lost: %+v", st.Shard, st)
		}
	}
	if got := mergedReport(t, dir); !bytes.Equal(got, ref) {
		t.Errorf("remote report differs from single-process run:\n--- ref\n%s\n--- got\n%s", ref, got)
	}
	// The mirrored journals the worker shipped back must be genuine v2
	// bytes that replay clean — proof the byte-oriented transport and
	// the journal reader compose.
	for i, m := range sw.Shards() {
		for _, u := range m.Units {
			jp := filepath.Join(shard.UnitDir(filepath.Join(dir, shard.ShardDirName(i)), u.ID), campaign.JournalFile)
			data, err := os.ReadFile(jp)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(data, []byte("SCIBJv2\n")) {
				t.Fatalf("mirrored journal %s is not v2", u.ID)
			}
			if campaign.ValidPrefix(data) != int64(len(data)) {
				t.Fatalf("mirrored journal %s has a torn tail after clean completion", u.ID)
			}
		}
	}
}

// TestLocalFilesShipManifestFirst: within a unit the manifest ships
// before the journal, so a ship pass cut short by a network error or a
// kill never leaves the mirror holding a journal without its manifest —
// a state a replacement executor can neither resume (no campaign) nor
// start over (the journal already exists).
func TestLocalFilesShipManifestFirst(t *testing.T) {
	dir := t.TempDir()
	for _, u := range []string{"u1", "u0"} {
		ud := filepath.Join(dir, shard.UnitsDir, u)
		if err := os.MkdirAll(ud, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, f := range []string{shard.UnitResultFile, campaign.JournalFile, campaign.ManifestFile} {
			if err := os.WriteFile(filepath.Join(ud, f), []byte("x"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := (&Worker{}).localFiles(&job{dir: dir})
	want := []string{
		"units/u0/manifest.json", "units/u0/journal.jsonl", "units/u0/result.json",
		"units/u1/manifest.json", "units/u1/journal.jsonl", "units/u1/result.json",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("ship order = %v, want %v", got, want)
	}
}

// TestWorkerCloseRemovesOwnScratchDir: a worker started without a
// WorkDir runs its shard in a temp dir it made, and Close removes it; a
// caller's WorkDir survives Close with its journals intact.
func TestWorkerCloseRemovesOwnScratchDir(t *testing.T) {
	if testing.Short() {
		t.Skip("drives wall-clock supervision loops")
	}
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	dir := filepath.Join(t.TempDir(), "sweep")
	buildSweep(t, dir, 2, 2)
	c, err := NewCoordinator(dir, CoordinatorOptions{Seed: 3, HeartbeatTimeout: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	given := filepath.Join(t.TempDir(), "given")
	var workers []*Worker
	for _, wd := range []string{"", given} { // round-robin: shard i runs on worker i
		w, err := StartWorker(WorkerOptions{
			Coordinator:  c.URL(),
			WorkDir:      wd,
			Runner:       testRunner{},
			ShipInterval: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		workers = append(workers, w)
	}
	if err := c.WaitForWorkers(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	statuses, err := shard.Supervise(context.Background(), dir, c.StartFunc(), shard.Options{
		Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range statuses {
		if st.Lost {
			t.Fatalf("shard %d lost: %+v", st.Shard, st)
		}
	}
	journals := func(root string) []string {
		m, _ := filepath.Glob(filepath.Join(root, "*", "shard-*", shard.UnitsDir, "*", campaign.JournalFile))
		return m
	}
	scratch := workers[0].workDir
	if filepath.Dir(scratch) != tmp || len(journals(scratch)) == 0 {
		t.Fatalf("worker without WorkDir ran no shard in a temp dir under %s (work dir %s)", tmp, scratch)
	}
	for _, w := range workers {
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(scratch); !os.IsNotExist(err) {
		t.Errorf("Close left the worker's scratch dir %s behind (stat: %v)", scratch, err)
	}
	if len(journals(given)) == 0 {
		t.Errorf("Close removed journals from the caller's WorkDir %s", given)
	}
}
