package remote

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/rules"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

// Telemetry: worker-side shipment accounting.
var (
	telShipped    = telemetry.Default().Counter("remote.chunks_shipped")
	telShipBytes  = telemetry.Default().Counter("remote.ship_bytes")
	telShipErrors = telemetry.Default().Counter("remote.ship_errors")
	telFenced     = telemetry.Default().Counter("remote.attempts_fenced")
)

// WorkerOptions configures a worker agent.
type WorkerOptions struct {
	// Coordinator is the coordinator's base URL (required).
	Coordinator string
	// Listen is the worker's own TCP address (default "127.0.0.1:0").
	Listen string
	// AdvertiseHost overrides the host workers advertise to the
	// coordinator (default: the listener's address — correct for
	// loopback; multi-homed machines set it to their reachable IP).
	AdvertiseHost string
	// WorkDir is where shard campaigns run locally (default: a temp dir
	// that Close removes; a caller's WorkDir is never removed).
	WorkDir string
	// Runner rebuilds each unit's measurement (required).
	Runner shard.UnitRunner
	// ShipInterval paces progress reports and journal shipment
	// (default 100ms). Shipping is asynchronous to measurement: a
	// partition stalls shipment, never the executor.
	ShipInterval time.Duration
	// RequestTimeout bounds each RPC to the coordinator (default 5s).
	RequestTimeout time.Duration
	// RegisterRetries bounds registration attempts (default 10).
	RegisterRetries int
	// Seed derives retry jitter (default 1; set it to the campaign seed
	// for reproducible schedules).
	Seed uint64
	// Env is the worker's Rule 9 host record (default HostEnv()).
	Env *rules.Environment
	// Hostname names this host in merge stratification (default
	// os.Hostname).
	Hostname string
	// Transport, when non-nil, replaces the HTTP transport for
	// coordinator RPCs — the fault-injection seam.
	Transport http.RoundTripper
	// Log, when non-nil, receives one line per worker event and the
	// executor's per-unit progress lines (skipped / resumed / measured).
	Log io.Writer
}

func (o WorkerOptions) withDefaults() (WorkerOptions, error) {
	if o.Coordinator == "" {
		return o, errors.New("remote: worker needs a coordinator URL")
	}
	if o.Runner == nil {
		return o, errors.New("remote: worker needs a UnitRunner")
	}
	if o.Listen == "" {
		o.Listen = "127.0.0.1:0"
	}
	if o.ShipInterval <= 0 {
		o.ShipInterval = 100 * time.Millisecond
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 5 * time.Second
	}
	if o.RegisterRetries <= 0 {
		o.RegisterRetries = 10
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Env == nil {
		env := HostEnv()
		o.Env = &env
	}
	if o.Hostname == "" {
		o.Hostname, _ = os.Hostname()
	}
	return o, nil
}

// job is one shard attempt running on this worker.
type job struct {
	shardIdx int
	attempt  int
	dir      string
	cancel   context.CancelFunc
	finished chan struct{}
	calls    atomic.Uint64 // completed measure calls: the reported progress
}

// countingRunner counts every completed measure call of a job, so the
// ship tick can report progress rather than a live goroutine.
type countingRunner struct {
	inner shard.UnitRunner
	calls *atomic.Uint64
}

func (r countingRunner) Setup(u shard.Unit) (campaign.Manifest, bench.Plan, func() (float64, error), error) {
	man, plan, measure, err := r.inner.Setup(u)
	if err != nil {
		return man, plan, measure, err
	}
	return man, plan, func() (float64, error) {
		v, err := measure()
		r.calls.Add(1)
		return v, err
	}, nil
}

// Worker is the machine-side agent: it registers with a coordinator,
// accepts fenced shard assignments, runs the journaled executor
// locally, and ships journal bytes home. Measurement never waits for
// the network — during a partition the executor keeps appending to its
// local journal, and on heal the shipper resumes from the mirror's
// acknowledged offset, re-shipping only the suffix.
type Worker struct {
	opt       WorkerOptions
	id        string
	sweepHash string
	base      string
	workDir   string
	tempDir   bool // workDir was made by StartWorker; Close removes it
	client    *http.Client
	srv       *http.Server
	ln        net.Listener

	mu   sync.Mutex
	jobs map[int]*job
	wg   sync.WaitGroup
}

// StartWorker launches a worker agent: listen, register (with seeded
// retries — the coordinator may not be up yet), serve assignments.
func StartWorker(opt WorkerOptions) (*Worker, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", opt.Listen)
	if err != nil {
		return nil, fmt.Errorf("remote: worker listen: %w", err)
	}
	addr := ln.Addr().String()
	if opt.AdvertiseHost != "" {
		_, port, _ := net.SplitHostPort(addr)
		addr = net.JoinHostPort(opt.AdvertiseHost, port)
	}
	w := &Worker{
		opt:     opt,
		base:    "http://" + addr,
		workDir: opt.WorkDir,
		ln:      ln,
		jobs:    map[int]*job{},
		client:  &http.Client{Timeout: opt.RequestTimeout, Transport: opt.Transport},
	}
	if w.workDir == "" {
		dir, err := os.MkdirTemp("", "scibench-worker")
		if err != nil {
			ln.Close()
			return nil, err
		}
		w.workDir, w.tempDir = dir, true
	}
	mux := http.NewServeMux()
	mux.HandleFunc(PathAssign, w.handleAssign)
	mux.HandleFunc(PathCancel, w.handleCancel)
	mux.HandleFunc(PathStatus, w.handleStatus)
	w.srv = &http.Server{Handler: mux}
	go w.srv.Serve(ln)
	if err := w.register(); err != nil {
		w.Close()
		return nil, err
	}
	return w, nil
}

// register announces this worker, retrying with seeded backoff until
// the coordinator answers or the budget runs out.
func (w *Worker) register() error {
	fp, err := Fingerprint(*w.opt.Env)
	if err != nil {
		return fmt.Errorf("remote: fingerprinting host env: %w", err)
	}
	req := RegisterRequest{
		Protocol:       ProtocolVersion,
		Addr:           w.base,
		Hostname:       w.opt.Hostname,
		Env:            *w.opt.Env,
		EnvFingerprint: fp,
	}
	var last error
	for try := 1; try <= w.opt.RegisterRetries; try++ {
		var resp RegisterResponse
		if err := postJSON(w.client, w.opt.Coordinator+PathRegister, req, &resp); err == nil {
			w.id = resp.WorkerID
			w.sweepHash = resp.SweepHash
			w.logf("worker %s: registered with %s (sweep %s)\n", w.id, w.opt.Coordinator, short12(resp.SweepHash))
			return nil
		} else {
			last = err
		}
		time.Sleep(shard.SeededBackoff(w.opt.Seed, 0, try, 50*time.Millisecond, 2*time.Second))
	}
	return fmt.Errorf("remote: registering with %s: %w", w.opt.Coordinator, last)
}

// ID returns the coordinator-assigned worker ID.
func (w *Worker) ID() string { return w.id }

// URL returns the worker's own base URL.
func (w *Worker) URL() string { return w.base }

// Close cancels every running job, stops the agent, and removes the
// scratch directory StartWorker made when WorkDir was empty.
func (w *Worker) Close() error {
	w.mu.Lock()
	for _, j := range w.jobs {
		j.cancel()
	}
	w.mu.Unlock()
	w.wg.Wait()
	err := w.srv.Close()
	if w.tempDir {
		err = errors.Join(err, os.RemoveAll(w.workDir))
	}
	return err
}

// ---- HTTP handlers (coordinator → worker) ----

func (w *Worker) handleAssign(rw http.ResponseWriter, r *http.Request) {
	var req AssignRequest
	if !readBody(rw, r, &req) {
		return
	}
	if req.SweepHash != w.sweepHash {
		writeJSONResp(rw, AssignResponse{Refused: fmt.Sprintf("sweep %s is not the sweep this worker registered for", short12(req.SweepHash))})
		return
	}
	for _, fs := range req.Seed {
		if !ValidChunkPath(fs.Path) {
			writeJSONResp(rw, AssignResponse{Refused: fmt.Sprintf("seed path %q refused", fs.Path)})
			return
		}
		if crc32.ChecksumIEEE(fs.Data) != fs.CRC {
			writeJSONResp(rw, AssignResponse{Refused: fmt.Sprintf("seed file %s failed CRC", fs.Path)})
			return
		}
	}
	w.mu.Lock()
	old := w.jobs[req.Shard]
	switch {
	case old != nil && old.attempt == req.Attempt:
		// Duplicate delivery of the same assignment: already running.
		w.mu.Unlock()
		writeJSONResp(rw, AssignResponse{OK: true})
		return
	case old != nil && old.attempt > req.Attempt:
		w.mu.Unlock()
		writeJSONResp(rw, AssignResponse{Refused: fmt.Sprintf("attempt %d is stale: attempt %d already runs here", req.Attempt, old.attempt)})
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		shardIdx: req.Shard,
		attempt:  req.Attempt,
		dir:      filepath.Join(w.workDir, short12(req.SweepHash), shard.ShardDirName(req.Shard)),
		cancel:   cancel,
		finished: make(chan struct{}),
	}
	w.jobs[req.Shard] = j
	w.wg.Add(1)
	w.mu.Unlock()
	go func() {
		defer w.wg.Done()
		defer close(j.finished)
		// A predecessor attempt on this same shard must fully stop before
		// the new one touches the same local journals.
		if old != nil {
			old.cancel()
			<-old.finished
		}
		w.runJob(ctx, j, req)
		w.mu.Lock()
		if w.jobs[req.Shard] == j {
			delete(w.jobs, req.Shard)
		}
		w.mu.Unlock()
	}()
	writeJSONResp(rw, AssignResponse{OK: true})
}

func (w *Worker) handleCancel(rw http.ResponseWriter, r *http.Request) {
	var req CancelRequest
	if !readBody(rw, r, &req) {
		return
	}
	w.mu.Lock()
	j := w.jobs[req.Shard]
	w.mu.Unlock()
	if j != nil && j.attempt <= req.Attempt && req.SweepHash == w.sweepHash {
		w.logf("worker %s: shard %d attempt %d cancelled by coordinator\n", w.id, j.shardIdx, j.attempt)
		j.cancel()
	}
	writeJSONResp(rw, AssignResponse{OK: true})
}

func (w *Worker) handleStatus(rw http.ResponseWriter, r *http.Request) {
	w.mu.Lock()
	jobs := map[string]int{}
	for idx, j := range w.jobs {
		jobs[shard.ShardDirName(idx)] = j.attempt
	}
	w.mu.Unlock()
	writeJSONResp(rw, struct {
		ID   string         `json:"id"`
		Jobs map[string]int `json:"jobs"`
	}{w.id, jobs})
}

// ---- job execution ----

// runJob drives one shard attempt: lay down the manifest and seed
// files, start the local executor, report progress and ship journal
// suffixes until it finishes, then hold the completion barrier
// (inventory-verified done) or report failure.
func (w *Worker) runJob(ctx context.Context, j *job, req AssignRequest) {
	_, span := telemetry.StartSpan(ctx, "remote", fmt.Sprintf("shard %d attempt %d", j.shardIdx, j.attempt))
	defer span.End()
	if err := w.prepare(j, req); err != nil {
		w.reportFail(ctx, j, fmt.Sprintf("preparing shard dir: %v", err))
		return
	}
	var done shard.ShardDone // written before the send on execDone
	execDone := make(chan error, 1)
	go func() {
		d, err := shard.ExecShard(ctx, j.dir, countingRunner{w.opt.Runner, &j.calls}, shard.ExecOptions{
			Attempt:  j.attempt,
			Progress: w.opt.Log,
		})
		done = d
		execDone <- err
	}()

	sh := &shipper{w: w, j: j, shipped: map[string]int64{}}
	tick := time.NewTicker(w.opt.ShipInterval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			<-execDone
			return
		case err := <-execDone:
			if err != nil {
				if ctx.Err() != nil {
					return
				}
				w.reportFail(ctx, j, err.Error())
				return
			}
			w.finish(ctx, j, sh, done)
			return
		case <-tick.C:
			sh.reportProgress(ctx)
			if fenced := sh.shipPass(ctx); fenced {
				telFenced.Inc()
				w.logf("worker %s: shard %d attempt %d fenced off, stopping executor\n", w.id, j.shardIdx, j.attempt)
				j.cancel()
			}
		}
	}
}

// prepare writes the shard manifest and applies the assignment seed.
// The mirror is the one lineage, unit by unit: a unit's local files are
// kept only when every seeded file is a prefix of its local copy (an
// unshipped tail a restarted worker measured). Otherwise the unit
// directory is replaced by its seed, so no local sentinel or manifest
// outlives the journal it belonged to. A local journal's torn tail is
// cut here, before the shipper can send it: the executor would drop it
// at resume and append a different continuation.
func (w *Worker) prepare(j *job, req AssignRequest) error {
	if err := os.MkdirAll(filepath.Join(j.dir, shard.UnitsDir), 0o755); err != nil {
		return err
	}
	if err := shard.WriteJSON(filepath.Join(j.dir, shard.ManifestFile), req.Manifest); err != nil {
		return err
	}
	stale := map[string]bool{}
	for _, fs := range req.Seed {
		path := filepath.Join(j.dir, filepath.FromSlash(fs.Path))
		if local, err := os.ReadFile(path); err != nil || !bytes.HasPrefix(local, fs.Data) {
			stale[filepath.Dir(path)] = true
		}
	}
	for unit := range stale {
		if err := os.RemoveAll(unit); err != nil {
			return err
		}
		if err := os.MkdirAll(unit, 0o755); err != nil {
			return err
		}
	}
	for _, fs := range req.Seed {
		path := filepath.Join(j.dir, filepath.FromSlash(fs.Path))
		if !stale[filepath.Dir(path)] {
			continue
		}
		if err := os.WriteFile(path, fs.Data, 0o644); err != nil {
			return err
		}
	}
	for _, rel := range w.localFiles(j) {
		if filepath.Base(rel) != campaign.JournalFile {
			continue
		}
		path := filepath.Join(j.dir, filepath.FromSlash(rel))
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if valid := campaign.ValidPrefix(b); valid > 0 && valid < int64(len(b)) {
			if err := os.Truncate(path, valid); err != nil {
				return err
			}
		}
	}
	return nil
}

// localFiles lists the shippable files currently in the job dir: units
// in name order, each unit's files in shardFiles order.
func (w *Worker) localFiles(j *job) []string {
	var out []string
	units, err := os.ReadDir(filepath.Join(j.dir, shard.UnitsDir))
	if err != nil {
		return nil
	}
	for _, u := range units {
		if !u.IsDir() {
			continue
		}
		for _, f := range shardFiles {
			rel := shard.UnitsDir + "/" + u.Name() + "/" + f
			if _, err := os.Stat(filepath.Join(j.dir, shard.UnitsDir, u.Name(), f)); err == nil {
				out = append(out, rel)
			}
		}
	}
	return out
}

// finish drives the completion barrier for the executor's completion
// record d: ship until the mirror has every byte, then claim done with a
// full inventory; on "mirror incomplete" adopt the mirror's resume
// offsets and go around. Retries use seeded backoff and give up only
// when fenced or cancelled — while the shard's lease is ours, the only
// exit is a verified mirror.
func (w *Worker) finish(ctx context.Context, j *job, sh *shipper, d shard.ShardDone) {
	for try := 1; ; try++ {
		if ctx.Err() != nil {
			return
		}
		if fenced := sh.shipPass(ctx); fenced {
			telFenced.Inc()
			return
		}
		if !sh.allShipped(ctx) {
			// Network trouble mid-pass: back off and re-ship the rest.
			time.Sleep(shard.SeededBackoff(w.opt.Seed, uint64(j.shardIdx)<<32|uint64(j.attempt), try, 50*time.Millisecond, 2*time.Second))
			continue
		}
		inv, err := w.inventory(j)
		if err != nil {
			w.reportFail(ctx, j, fmt.Sprintf("building inventory: %v", err))
			return
		}
		var resp DoneResponse
		err = postJSON(w.client, w.opt.Coordinator+PathDone, DoneRequest{
			WorkerID:  w.id,
			SweepHash: w.sweepHash,
			Shard:     j.shardIdx,
			Attempt:   j.attempt,
			Done:      d,
			Files:     inv,
		}, &resp)
		switch {
		case err != nil:
			telShipErrors.Inc()
		case resp.Stale:
			telFenced.Inc()
			return
		case resp.OK:
			w.logf("worker %s: shard %d attempt %d done, inventory verified\n", w.id, j.shardIdx, j.attempt)
			return
		default:
			// Mirror disagrees: resume each mismatched file from the
			// mirror's recorded size.
			for _, m := range resp.Mirror {
				if cur, ok := sh.shipped[m.Path]; !ok || m.Size < cur {
					sh.shipped[m.Path] = m.Size
				}
			}
		}
		time.Sleep(shard.SeededBackoff(w.opt.Seed, uint64(j.shardIdx)<<32|uint64(j.attempt), try, 50*time.Millisecond, 2*time.Second))
	}
}

// inventory sums every shippable local file.
func (w *Worker) inventory(j *job) ([]FileSum, error) {
	var out []FileSum
	for _, rel := range w.localFiles(j) {
		b, err := os.ReadFile(filepath.Join(j.dir, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		out = append(out, FileSum{Path: rel, Size: int64(len(b)), CRC: crc32.ChecksumIEEE(b)})
	}
	return out, nil
}

// reportFail tells the coordinator the attempt failed (best-effort,
// bounded retries — if the network is down, the coordinator's liveness
// timeout delivers the same verdict later).
func (w *Worker) reportFail(ctx context.Context, j *job, msg string) {
	w.logf("worker %s: shard %d attempt %d failed: %s\n", w.id, j.shardIdx, j.attempt, msg)
	for try := 1; try <= 3; try++ {
		if ctx.Err() != nil {
			return
		}
		var resp DoneResponse
		if err := postJSON(w.client, w.opt.Coordinator+PathFail, FailRequest{
			WorkerID:  w.id,
			SweepHash: w.sweepHash,
			Shard:     j.shardIdx,
			Attempt:   j.attempt,
			Error:     msg,
		}, &resp); err == nil {
			return
		}
		time.Sleep(shard.SeededBackoff(w.opt.Seed, uint64(j.shardIdx)<<32|uint64(j.attempt), try, 50*time.Millisecond, time.Second))
	}
}

func (w *Worker) logf(format string, args ...any) {
	if w.opt.Log != nil {
		fmt.Fprintf(w.opt.Log, format, args...)
	}
}

// shipper tracks per-file shipment offsets for one attempt.
type shipper struct {
	w       *Worker
	j       *job
	shipped map[string]int64
}

// reportProgress posts the job's count of completed measure calls.
// Failures are ignored: no progress through a partition is precisely
// what the coordinator should see.
func (s *shipper) reportProgress(ctx context.Context) {
	if ctx.Err() != nil {
		return
	}
	var resp ChunkResponse
	_ = postJSON(s.w.client, s.w.opt.Coordinator+PathHeartbeat, HeartbeatMsg{
		WorkerID:  s.w.id,
		SweepHash: s.w.sweepHash,
		Shard:     s.j.shardIdx,
		Attempt:   s.j.attempt,
		Seq:       s.j.calls.Load(),
	}, &resp)
}

// shipPass pushes every file's unshipped suffix. It returns true when
// the coordinator fenced this attempt out (the zombie signal); network
// errors just end the pass — the next tick retries, and the executor
// never waited for any of it.
func (s *shipper) shipPass(ctx context.Context) (fenced bool) {
	for _, rel := range s.w.localFiles(s.j) {
		if ctx.Err() != nil {
			return false
		}
		path := filepath.Join(s.j.dir, filepath.FromSlash(rel))
		for {
			st, err := os.Stat(path)
			if err != nil || s.shipped[rel] >= st.Size() {
				break
			}
			ch, err := campaign.ReadFileChunk(path, s.shipped[rel], MaxChunk)
			if err != nil {
				break
			}
			var resp ChunkResponse
			err = postJSON(s.w.client, s.w.opt.Coordinator+PathChunk, ChunkFrame{
				WorkerID:  s.w.id,
				SweepHash: s.w.sweepHash,
				Shard:     s.j.shardIdx,
				Attempt:   s.j.attempt,
				Path:      rel,
				Off:       ch.Off,
				Data:      ch.Data,
				CRC:       ch.CRC,
			}, &resp)
			if err != nil {
				telShipErrors.Inc()
				return false
			}
			if resp.Stale {
				return true
			}
			// ResumeOff is authoritative in every outcome: an ack moves
			// forward, a duplicate skips ahead, a gap rewinds.
			s.shipped[rel] = resp.ResumeOff
			if resp.OK {
				telShipped.Inc()
				telShipBytes.Add(int64(len(ch.Data)))
			}
		}
	}
	return false
}

// allShipped reports whether every local file is fully mirrored.
func (s *shipper) allShipped(ctx context.Context) bool {
	for _, rel := range s.w.localFiles(s.j) {
		st, err := os.Stat(filepath.Join(s.j.dir, filepath.FromSlash(rel)))
		if err != nil {
			return false
		}
		if s.shipped[rel] < st.Size() {
			return false
		}
	}
	return ctx.Err() == nil
}

func short12(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}
