package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/remote"
	"repro/internal/rules"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/suite"
)

// Every workload uses at most this many goroutine workers, shards and
// loopback workers: the reference host has 2 cores.
const parallelism = 2

// sizes is the input size of every workload.
type sizes struct {
	units, samples int           // sweep: units × samples per unit
	rounds         int           // sweep: ping-pong rounds averaged into one observation
	ranks          []int         // collectives: process counts
	runs           int           // collectives: samples per configuration
	epoch          time.Duration // serve: simulated time per epoch
}

// size is the input size the benchmark measures; the self-tests shrink it.
// A sweep observation averages many rounds so that an executor computes
// for milliseconds between group-commit fsyncs and, on one P, the other
// executor's fsync waits behind that compute instead of stalling the
// sweep: with one round per observation the host disk's slow phases
// stretched sweep_remote's wall_ref by up to 1.8×.
var size = sizes{units: 8, samples: 640, rounds: 2048, ranks: []int{4, 64, 1024, 16384}, runs: 40, epoch: 20 * time.Second}

// workload is one named set of inputs. prepare builds one iteration's
// inputs (timed as setup_s) and returns the operation to time (wall_s).
// reference, when set, computes the canonical output every iteration
// must reproduce; otherwise the warm-up iteration's output is the
// reference.
type workload struct {
	name      string
	reference func(b *bencher) ([]byte, error)
	prepare   func(b *bencher, traced bool) (*op, error)
}

// op is one prepared operation.
type op struct {
	run func() (outcome, error)
	// spans returns the values the benchmark measured around its own
	// calls into the program; called after the timed call, traced only.
	spans func() map[string]float64
	// close tears the operation down, untimed.
	close func() error
}

// outcome is what one timed call produced.
type outcome struct {
	canonical []byte  // the canonical output bytes, compared across iterations
	work      float64 // units of work done
	attempted int     // operations attempted
	failed    int     // operations that errored, lost data or degraded
}

// The local in-process sweep is not a workload of its own: on a shared
// disk its wall time follows the host's fsync latency (run-to-run
// spread up to 0.36 of the median over ten seeds). It runs once per
// sweep_remote run, untimed, as that workload's reference.
var workloads = []*workload{
	{name: "sweep_remote", reference: localSweepReport, prepare: prepareRemoteSweep},
	{name: "collectives", prepare: prepareCollectives},
	{name: "serve", prepare: prepareServe},
}

func lookupWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// bencher runs the iterations of one workload.
type bencher struct {
	seed uint64
	dir  string    // scratch directory, removed when the run ends
	log  io.Writer // human-readable notes
	n    int       // iterations prepared so far
}

// iterDir returns a fresh directory name for the next iteration.
func (b *bencher) iterDir() string {
	b.n++
	return filepath.Join(b.dir, fmt.Sprintf("it-%04d", b.n))
}

// quiesce starts a timed step from a collected heap and flushed file
// data, so the step pays neither for the garbage nor for the dirty
// files (through its own fsyncs and metadata updates) of earlier steps.
func quiesce() {
	runtime.GC()
	syscall.Sync()
}

// iterate prepares, times and tears down one iteration of w. A traced
// iteration also reads the registry, the allocator and the workload's
// own spans around the timed call.
func (b *bencher) iterate(w *workload, traced bool) (it iteration, canonical []byte, err error) {
	quiesce()
	t0 := time.Now()
	o, err := w.prepare(b, traced)
	it.setup = time.Since(t0).Seconds()
	if err != nil {
		return it, nil, fmt.Errorf("set-up: %w", err)
	}
	defer func() {
		if cerr := o.close(); cerr != nil && err == nil {
			err = fmt.Errorf("tear-down: %w", cerr)
		}
	}()
	quiesce()

	before := calibrate()
	var reg0 regReading
	var mem0 runtime.MemStats
	if traced {
		reg0, mem0 = readRegistry(), readMem()
	}
	c0 := cpuSeconds()
	t1 := time.Now()
	out, err := o.run()
	it.wall = time.Since(t1).Seconds()
	it.cpu = cpuSeconds() - c0
	if err != nil {
		return it, nil, err
	}
	it.calib = (before + calibrate()) / 2
	it.traced = traced
	it.work, it.attempted, it.failed = out.work, out.attempted, out.failed
	if traced {
		mem := memBetween(mem0, readMem())
		var spans map[string]float64
		if o.spans != nil {
			spans = o.spans()
		}
		it.layers = layerMetrics(readRegistry().since(reg0), mem, spans)
	}
	return it, out.canonical, nil
}

// ---- sweep and sweep_remote ----

// unitConfig is one sweep unit: a journaled ping-pong campaign on
// simulated Piz Daint.
type unitConfig struct {
	System  string  `json:"system"`
	Samples int     `json:"samples"`
	Rounds  int     `json:"rounds"`
	RelErr  float64 `json:"relerr"`
	Seed    uint64  `json:"seed"`
}

// unitRelErr is a CI target no unit meets, so every unit runs to its
// sample cap and the observation count is fixed.
const unitRelErr = 1e-9

// sweepName names every benchmark sweep; the merged report prints it, so
// local and remote sweeps of one seed must share it.
const sweepName = "perfbench-sweep"

var unitEnv = rules.Environment{
	Processor:        "simulated daint (cluster package)",
	Network:          "simulated interconnect, 2 ranks, ping-pong 64 B",
	MeasurementSetup: "mean of 2048 rounds per observation, journaled write-ahead (v2)",
	InputAndCode:     "perfbench sweep (repro module)",
	NotApplicable:    []string{"memory", "compiler", "runtime", "filesystem", "codeurl"},
}

// createSweep writes the sweep directory: units with seeds seed+i,
// partitioned into two shards, journaled in format v2.
func createSweep(dir string, seed uint64) error {
	units := make([]shard.Unit, size.units)
	for i := range units {
		cfg := unitConfig{System: "daint", Samples: size.samples, Rounds: size.rounds, RelErr: unitRelErr, Seed: seed + uint64(i)}
		raw, err := json.Marshal(cfg)
		if err != nil {
			return err
		}
		hash, err := campaign.HashJSON(cfg)
		if err != nil {
			return err
		}
		units[i] = shard.Unit{ID: fmt.Sprintf("u%03d", i), Seed: cfg.Seed, ConfigHash: hash, Config: raw}
	}
	noFaults, err := campaign.HashJSON(nil)
	if err != nil {
		return err
	}
	sw, err := shard.NewSweep(sweepName, units, noFaults, unitEnv, parallelism)
	if err != nil {
		return err
	}
	sw.Journal = "v2"
	return shard.Create(dir, sw)
}

// unitRunner rebuilds a unit's campaign from its config. With a tracer
// it times Setup and every measure call.
type unitRunner struct{ tr *unitTracer }

func (r unitRunner) Setup(u shard.Unit) (campaign.Manifest, bench.Plan, func() (float64, error), error) {
	start := time.Now()
	var cfg unitConfig
	if err := json.Unmarshal(u.Config, &cfg); err != nil {
		return campaign.Manifest{}, bench.Plan{}, nil, fmt.Errorf("unit %s: %w", u.ID, err)
	}
	m, err := cluster.New(cluster.PizDaint(), 2, cfg.Seed)
	if err != nil {
		return campaign.Manifest{}, bench.Plan{}, nil, err
	}
	man, err := campaign.NewManifest(u.ID, cfg.Seed, cfg, nil, unitEnv)
	if err != nil {
		return campaign.Manifest{}, bench.Plan{}, nil, err
	}
	measure := func() (float64, error) {
		var sum time.Duration
		for _, d := range m.PingPong(0, 1, 64, cfg.Rounds) {
			sum += d
		}
		return float64(sum) / float64(cfg.Rounds) / float64(time.Microsecond), nil
	}
	if r.tr != nil {
		measure = r.tr.wrap(start, measure)
	}
	return man, bench.Plan{Warmup: 3, MaxSamples: cfg.Samples, RelErr: cfg.RelErr}, measure, nil
}

// unitTracer times the callbacks the benchmark hands the shard layer:
// each unit's span from Setup to its last measure return, and the time
// inside measure (Machine.PingPong). Executors run concurrently, so
// every field is atomic or under mu.
type unitTracer struct {
	base  time.Time
	busy  atomic.Int64 // ns inside measure
	calls atomic.Int64
	mu    sync.Mutex
	units []*unitSpan
}

// unitSpan is one unit's span, in ns since the tracer's base.
type unitSpan struct {
	start int64
	last  atomic.Int64
}

func newUnitTracer() *unitTracer { return &unitTracer{base: time.Now()} }

func (t *unitTracer) wrap(start time.Time, measure func() (float64, error)) func() (float64, error) {
	s := &unitSpan{start: int64(start.Sub(t.base))}
	s.last.Store(s.start)
	t.mu.Lock()
	t.units = append(t.units, s)
	t.mu.Unlock()
	return func() (float64, error) {
		t0 := time.Now()
		v, err := measure()
		t1 := time.Now()
		t.busy.Add(int64(t1.Sub(t0)))
		t.calls.Add(1)
		s.last.Store(int64(t1.Sub(t.base)))
		return v, err
	}
}

// totals returns the time inside measure, the call count, the summed
// unit spans, and when the last observation returned.
func (t *unitTracer) totals() (busy time.Duration, calls int64, units time.Duration, last time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum, latest int64
	for _, u := range t.units {
		l := u.last.Load()
		sum += l - u.start
		latest = max(latest, l)
	}
	return time.Duration(t.busy.Load()), t.calls.Load(), time.Duration(sum), t.base.Add(time.Duration(latest))
}

// sweepOp is one supervised sweep followed by its merge.
type sweepOp struct {
	dir   string
	seed  uint64
	start shard.StartFunc
	tr    *unitTracer // nil when untraced

	supervise, merge time.Duration
	supervised       time.Time // when Supervise returned
}

func (s *sweepOp) run() (outcome, error) {
	t0 := time.Now()
	// A shard lost by Supervise shows in the merge as lost units.
	_, err := shard.Supervise(context.Background(), s.dir, s.start, shard.Options{Seed: s.seed})
	t1 := time.Now()
	if err != nil {
		return outcome{}, err
	}
	rep, err := shard.Merge(s.dir)
	if err != nil {
		return outcome{}, err
	}
	if err := shard.WriteMerged(s.dir, rep); err != nil {
		return outcome{}, err
	}
	var buf bytes.Buffer
	if err := rep.WriteReport(&buf); err != nil {
		return outcome{}, err
	}
	s.supervise, s.merge, s.supervised = t1.Sub(t0), time.Since(t1), t1

	out := outcome{canonical: buf.Bytes(), attempted: len(rep.Units)}
	for _, u := range rep.Units {
		out.work += float64(u.N)
		if !u.Completed || u.Lost || u.Losses > 0 || u.Stop == bench.StopDegraded || u.Stop == bench.StopInterrupted {
			out.failed++
			fmt.Fprintf(os.Stderr, "perfbench: unit %s failed: n=%d lost=%d stop=%q\n", u.Unit.ID, u.N, u.Losses, u.Stop)
		}
	}
	return out, nil
}

func (s *sweepOp) spans() map[string]float64 {
	busy, calls, units, last := s.tr.totals()
	return map[string]float64{
		"cluster.busy_s":         busy.Seconds(),
		"cluster.calls":          float64(calls),
		"campaign.unit_s":        (units - busy).Seconds(),
		"campaign.journal_bytes": journalBytes(s.dir),
		"shard.supervise_s":      s.supervise.Seconds(),
		"shard.merge_s":          s.merge.Seconds(),
		"shard.tail_s":           s.supervised.Sub(last).Seconds(),
	}
}

// journalBytes sums the sizes of the unit journals under a sweep.
func journalBytes(dir string) float64 {
	var n int64
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && d.Name() == campaign.JournalFile {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return float64(n)
}

// goHandle is a shard executor running on a goroutine of this process.
type goHandle struct {
	done   chan struct{}
	cancel context.CancelFunc
	err    error
}

func (h *goHandle) Wait() error { <-h.done; return h.err }
func (h *goHandle) Kill() error { h.cancel(); return nil }

// localStart runs every executor attempt in-process under Supervise.
func localStart(r shard.UnitRunner) shard.StartFunc {
	return func(shardDir string, attempt int) (shard.Handle, error) {
		ctx, cancel := context.WithCancel(context.Background())
		h := &goHandle{done: make(chan struct{}), cancel: cancel}
		go func() {
			defer close(h.done)
			defer cancel()
			_, h.err = shard.ExecShard(ctx, shardDir, r, shard.ExecOptions{Attempt: attempt})
		}()
		return h, nil
	}
}

// localSweepReport is sweep_remote's reference: the canonical report of
// the same sweep run by in-process executors, which the remote sweep
// must reproduce byte for byte. Its wall time goes to the log, to set
// the loopback transport's cost against.
func localSweepReport(b *bencher) ([]byte, error) {
	dir := b.iterDir()
	if err := createSweep(dir, b.seed); err != nil {
		return nil, err
	}
	s := &sweepOp{dir: dir, seed: b.seed, start: localStart(unitRunner{})}
	quiesce()
	t0 := time.Now()
	out, err := s.run()
	if err != nil {
		return nil, err
	}
	if out.failed > 0 {
		return nil, fmt.Errorf("%d of %d unit(s) failed", out.failed, out.attempted)
	}
	fmt.Fprintf(b.log, "perfbench: reference local sweep: %.3f s for %.0f observations\n",
		time.Since(t0).Seconds(), out.work)
	return out.canonical, nil
}

func prepareRemoteSweep(b *bencher, traced bool) (o *op, err error) {
	dir := b.iterDir()
	sweepDir := filepath.Join(dir, "sweep")
	if err := createSweep(sweepDir, b.seed); err != nil {
		return nil, err
	}
	// Workers close before the coordinator. The directories stay until
	// the run's scratch directory is removed: deleting them here would
	// leave the commit of the deletion to the next iteration's fsyncs.
	var closers []func() error
	closeAll := func() error {
		var first error
		for i := len(closers) - 1; i >= 0; i-- {
			if err := closers[i](); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	defer func() {
		if err != nil {
			closeAll()
		}
	}()

	c, err := remote.NewCoordinator(sweepDir, remote.CoordinatorOptions{Seed: b.seed})
	if err != nil {
		return nil, err
	}
	closers = append(closers, c.Close)
	s := &sweepOp{dir: sweepDir, seed: b.seed, start: c.StartFunc()}
	if traced {
		s.tr = newUnitTracer()
	}
	for i := 0; i < parallelism; i++ {
		w, err := remote.StartWorker(remote.WorkerOptions{
			Coordinator: c.URL(),
			WorkDir:     filepath.Join(dir, fmt.Sprintf("worker-%d", i)),
			Runner:      unitRunner{s.tr},
			Seed:        b.seed + uint64(i),
		})
		if err != nil {
			return nil, err
		}
		closers = append(closers, w.Close)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.WaitForWorkers(ctx, parallelism); err != nil {
		return nil, err
	}
	return &op{run: s.run, spans: s.spans, close: closeAll}, nil
}

// ---- collectives ----

var (
	suiteCollectives = []string{suite.Reduce, suite.Allreduce, suite.Bcast, suite.Barrier}
	suitePayloads    = []int{8, 1024}
)

func prepareCollectives(b *bencher, _ bool) (*op, error) {
	cfg := suite.Config{
		Cluster:     cluster.PizDaint(),
		Collectives: suiteCollectives,
		Ranks:       size.ranks,
		Bytes:       suitePayloads,
		MaxRuns:     size.runs,
		// Never reached: every configuration runs to MaxRuns, so the
		// sample count is fixed while the adaptive loop still runs.
		RelErr:  1e-9,
		Seed:    b.seed,
		Workers: parallelism,
	}
	run := func() (outcome, error) {
		res, err := suite.Run(context.Background(), cfg, nil)
		if err != nil {
			return outcome{}, err
		}
		var buf bytes.Buffer
		if err := res.WriteReport(&buf); err != nil {
			return outcome{}, err
		}
		out := outcome{canonical: buf.Bytes(), attempted: len(res.Rows)}
		for _, row := range res.Rows {
			out.work += float64(row.N)
			if row.SamplesLost > 0 || row.Stop == bench.StopDegraded || row.Stop == bench.StopInterrupted {
				out.failed++
			}
		}
		return out, nil
	}
	return &op{run: run, close: func() error { return nil }}, nil
}

// ---- serve ----

// serveLoads is the default offered-load ramp of `scibench serve`, as
// fractions of nominal capacity.
var serveLoads = []float64{0.1, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95}

func prepareServe(b *bencher, _ bool) (*op, error) {
	epoch := size.epoch
	// The diurnal2 preset of `scibench serve`.
	cfg := suite.ServeConfig{
		Arrival: serve.ArrivalConfig{Kind: serve.Diurnal, Periods: []serve.DiurnalPeriod{
			{Period: epoch, Amplitude: 0.6},
			{Period: epoch / 5, Amplitude: 0.25},
		}},
		Server: serve.ServerConfig{
			Servers: 2,
			Service: serve.ServiceConfig{Mean: time.Millisecond, Sigma: 0.5},
		},
		Loads:    serveLoads,
		Duration: epoch,
		Epochs:   6,
		Seed:     b.seed,
		Workers:  parallelism,
	}
	run := func() (outcome, error) {
		res, err := suite.RunServe(context.Background(), cfg, nil)
		if err != nil {
			return outcome{}, err
		}
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			return outcome{}, err
		}
		out := outcome{canonical: buf.Bytes(), attempted: len(cfg.Loads)}
		for _, row := range res.Rows {
			out.work += float64(row.Offered)
			if row.Stop == bench.StopDegraded || row.Stop == bench.StopInterrupted {
				out.failed++
			}
		}
		return out, nil
	}
	return &op{run: run, close: func() error { return nil }}, nil
}
