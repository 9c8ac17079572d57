package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

// Telemetry: transport accounting. Counters only — nothing here may
// change a report byte.
var (
	telAssigns      = telemetry.Default().Counter("remote.assigns")
	telChunks       = telemetry.Default().Counter("remote.chunks_applied")
	telChunkBytes   = telemetry.Default().Counter("remote.chunk_bytes")
	telDupChunks    = telemetry.Default().Counter("remote.chunks_duplicate")
	telStaleRefused = telemetry.Default().Counter("remote.stale_refused")
	telBadFrames    = telemetry.Default().Counter("remote.bad_frames")
	telHeartbeats   = telemetry.Default().Counter("remote.heartbeats_forwarded")
	telWorkers      = telemetry.Default().Gauge("remote.workers")
	telMirrorFsync  = telemetry.Default().Histogram("remote.mirror_fsync_us")
)

// syncFile is the fsync seam of the mirror-durability test, which
// counts the syncs behind each acknowledgement. Production behaviour is
// the plain syscall.
var syncFile = func(f *os.File) error { return f.Sync() }

// errKilled is the Wait result of an attempt the supervisor killed.
var errKilled = errors.New("remote: attempt fenced off by supervisor kill")

// CoordinatorOptions tunes the coordinator transport.
type CoordinatorOptions struct {
	// Listen is the TCP address to serve on (default "127.0.0.1:0").
	Listen string
	// RequestTimeout bounds every RPC to a worker (default 5s): a
	// partitioned worker must fail the call, not hang the supervisor.
	RequestTimeout time.Duration
	// AssignRetries is the per-attempt budget of assignment RPC retries
	// before the attempt counts as a crash (default 3).
	AssignRetries int
	// HeartbeatTimeout is how long an attempt may go without completing
	// a measure call before it is fenced as stalled (default 5s). The
	// worker reports progress once per ship interval, so the timeout
	// must comfortably exceed that interval plus the longest gap
	// between two completed calls — which includes a unit's Setup,
	// journal open and replay, and its end-of-unit analysis, and the
	// completion barrier after the last unit.
	HeartbeatTimeout time.Duration
	// Seed derives all retry jitter (campaign seed by convention).
	Seed uint64
	// Transport, when non-nil, replaces the HTTP transport for worker
	// RPCs — the seam the seeded fault injector plugs into.
	Transport http.RoundTripper
	// Log, when non-nil, receives one line per transport event.
	Log io.Writer
}

func (o CoordinatorOptions) withDefaults() CoordinatorOptions {
	if o.Listen == "" {
		o.Listen = "127.0.0.1:0"
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 5 * time.Second
	}
	if o.AssignRetries <= 0 {
		o.AssignRetries = 3
	}
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = 5 * time.Second
	}
	return o
}

// workerRec is one registered worker.
type workerRec struct {
	ID       string
	Addr     string
	Hostname string
	EnvFP    string
	reg      RegisterRequest
}

// lease fences one shard attempt: only chunks, heartbeats, and
// completion claims carrying exactly this (attempt, worker) may touch
// the shard's mirror. Kill, stall or completion marks it dead; a dead
// lease refuses everything, so a zombie worker that outlived its
// supervision cannot corrupt a reassigned shard. The lease also holds
// the attempt's liveness: the last progress count its worker reported
// and the timer that fences the attempt when the count stops advancing.
type lease struct {
	shard   int
	attempt int
	worker  string

	mu    sync.Mutex
	dead  bool
	err   error
	done  chan struct{} // closed on first resolve
	seq   uint64        // completed measure calls last reported
	timer *time.Timer   // liveness; nil until the assignment is delivered
}

// resolve delivers the attempt outcome exactly once and reports
// whether this call delivered it.
func (l *lease) resolve(err error) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dead {
		return false
	}
	l.dead = true
	l.err = err
	if l.timer != nil {
		l.timer.Stop()
	}
	close(l.done)
	return true
}

// arm starts the liveness timer once the worker holds the assignment,
// so retried assignment RPCs do not count against the attempt.
func (l *lease) arm(timeout time.Duration, stalled func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.dead {
		l.timer = time.AfterFunc(timeout, stalled)
	}
}

// progress records a reported count of completed measure calls and
// re-arms the liveness timer only if the count advanced: a worker that
// keeps reporting beside a wedged measure is not making progress. A
// timer that already fired is not re-armed; its stall stands.
func (l *lease) progress(seq uint64, timeout time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dead || seq <= l.seq {
		return
	}
	l.seq = seq
	if l.timer != nil && l.timer.Stop() {
		l.timer.Reset(timeout)
	}
}

func (l *lease) isDead() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dead
}

// Coordinator is the sweep-side end of the remote transport: an HTTP
// server workers register with, a mirror of every shard directory fed
// by their chunk shipments, and the StartFunc through which
// shard.Supervise drives every sharded campaign — on loopback workers
// or on other machines.
type Coordinator struct {
	sweepDir string
	sweep    shard.SweepManifest
	opt      CoordinatorOptions
	srv      *http.Server
	ln       net.Listener
	client   *http.Client

	mu         sync.Mutex
	workers    []*workerRec
	byAddr     map[string]*workerRec
	leases     map[int]*lease
	lastWorker map[int]string // previous holder per shard, for reassignment anti-affinity
	nextID     int
	rr         int

	fileMu sync.Mutex // serializes all mirror file mutations
}

// NewCoordinator opens the sweep in sweepDir and starts serving the
// worker-facing API. Close releases the listener.
func NewCoordinator(sweepDir string, opt CoordinatorOptions) (*Coordinator, error) {
	sw, err := shard.LoadSweep(sweepDir)
	if err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	ln, err := net.Listen("tcp", opt.Listen)
	if err != nil {
		return nil, fmt.Errorf("remote: coordinator listen: %w", err)
	}
	c := &Coordinator{
		sweepDir:   sweepDir,
		sweep:      sw,
		opt:        opt,
		ln:         ln,
		byAddr:     map[string]*workerRec{},
		leases:     map[int]*lease{},
		lastWorker: map[int]string{},
		client: &http.Client{
			Timeout:   opt.RequestTimeout,
			Transport: opt.Transport,
		},
	}
	mux := http.NewServeMux()
	mux.HandleFunc(PathRegister, c.handleRegister)
	mux.HandleFunc(PathChunk, c.handleChunk)
	mux.HandleFunc(PathHeartbeat, c.handleHeartbeat)
	mux.HandleFunc(PathDone, c.handleDone)
	mux.HandleFunc(PathFail, c.handleFail)
	c.srv = &http.Server{Handler: mux}
	go c.srv.Serve(ln)
	return c, nil
}

// URL returns the coordinator's base URL for worker registration.
func (c *Coordinator) URL() string {
	return "http://" + c.ln.Addr().String()
}

// Close stops serving. In-flight leases are resolved as killed.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	for _, l := range c.leases {
		l.resolve(errKilled)
	}
	c.mu.Unlock()
	return c.srv.Close()
}

// WorkerInfo describes one registered worker.
type WorkerInfo struct {
	ID       string
	Addr     string
	Hostname string
	EnvFP    string
}

// Workers lists registered workers in registration order.
func (c *Coordinator) Workers() []WorkerInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]WorkerInfo, len(c.workers))
	for i, w := range c.workers {
		out[i] = WorkerInfo{ID: w.ID, Addr: w.Addr, Hostname: w.Hostname, EnvFP: w.EnvFP}
	}
	return out
}

// WaitForWorkers blocks until at least n workers have registered.
func (c *Coordinator) WaitForWorkers(ctx context.Context, n int) error {
	for {
		c.mu.Lock()
		got := len(c.workers)
		c.mu.Unlock()
		if got >= n {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("remote: %d of %d worker(s) registered: %w", got, n, ctx.Err())
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// StartFunc returns the launcher that plugs remote execution into
// shard.Supervise: each call assigns the shard attempt to a registered
// worker (preferring a different worker than the previous, failed
// attempt's) and returns a handle whose Wait observes the mirror-side
// completion and whose Kill fences the attempt.
func (c *Coordinator) StartFunc() shard.StartFunc {
	return func(shardDir string, attempt int) (shard.Handle, error) {
		var idx int
		if _, err := fmt.Sscanf(filepath.Base(shardDir), "shard-%d", &idx); err != nil {
			return nil, fmt.Errorf("remote: shard dir %q: %w", shardDir, err)
		}
		w, err := c.pickWorker(idx)
		if err != nil {
			return nil, err
		}
		m, err := shard.LoadManifest(shardDir)
		if err != nil {
			return nil, err
		}
		// Fence the previous attempt before the seed is taken, so no
		// frame of it can land in the mirror after the snapshot.
		l := &lease{shard: idx, attempt: attempt, worker: w.ID, done: make(chan struct{})}
		c.mu.Lock()
		if old := c.leases[idx]; old != nil {
			old.resolve(errKilled) // no two live leases per shard, ever
		}
		c.leases[idx] = l
		c.lastWorker[idx] = w.ID
		c.mu.Unlock()
		seed, err := c.snapshotSeed(idx, shardDir)
		if err != nil {
			l.resolve(errKilled)
			return nil, err
		}

		req := AssignRequest{
			SweepHash: c.sweep.SweepHash,
			Shard:     idx,
			Attempt:   attempt,
			Manifest:  m,
			Seed:      seed,
		}
		if err := c.assign(w, req); err != nil {
			l.resolve(errKilled)
			return nil, fmt.Errorf("remote: assigning shard %d attempt %d to %s: %w", idx, attempt, w.ID, err)
		}
		l.arm(c.opt.HeartbeatTimeout, func() { c.stall(w, l) })
		telAssigns.Inc()
		c.logf("shard %d: attempt %d assigned to %s (%s)\n", idx, attempt, w.ID, w.Hostname)
		return &remoteHandle{c: c, w: w, l: l}, nil
	}
}

// pickWorker chooses the next worker round-robin, skipping the previous
// holder of the shard when any alternative exists — a lost worker's
// shard should move, not bounce.
func (c *Coordinator) pickWorker(shardIdx int) (*workerRec, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.workers) == 0 {
		return nil, errors.New("remote: no workers registered")
	}
	prev := c.lastWorker[shardIdx]
	for i := 0; i < len(c.workers); i++ {
		w := c.workers[c.rr%len(c.workers)]
		c.rr++
		if w.ID == prev && len(c.workers) > 1 {
			continue
		}
		return w, nil
	}
	w := c.workers[c.rr%len(c.workers)]
	c.rr++
	return w, nil
}

// assign delivers one assignment with bounded seeded-backoff retries.
func (c *Coordinator) assign(w *workerRec, req AssignRequest) error {
	key := uint64(req.Shard)<<32 | uint64(req.Attempt)
	var last error
	for try := 1; try <= c.opt.AssignRetries; try++ {
		var resp AssignResponse
		err := postJSON(c.client, w.Addr+PathAssign, req, &resp)
		if err == nil {
			if !resp.OK {
				return fmt.Errorf("worker refused: %s", resp.Refused)
			}
			return nil
		}
		last = err
		time.Sleep(shard.SeededBackoff(c.opt.Seed, key, try, 50*time.Millisecond, time.Second))
	}
	return last
}

// snapshotSeed captures the shard mirror for an assignment: every unit
// campaign file. The replacement worker starts from exactly what the
// coordinator verified shipped — completed units are skipped, partial
// journals resumed, nothing re-measured. The shard is quiescent here
// (its previous lease is fenced), so this is where the mirror drops a
// torn tail a dead attempt shipped: a v2 journal is cut, durably, to
// its CRC-valid prefix before it is seeded. A journal that is not v2
// has no valid prefix and is seeded untouched, for the executor to
// refuse.
func (c *Coordinator) snapshotSeed(shardIdx int, shardDir string) ([]FileState, error) {
	c.fileMu.Lock()
	defer c.fileMu.Unlock()
	var out []FileState
	add := func(rel string) error {
		path := filepath.Join(shardDir, rel)
		b, err := os.ReadFile(path)
		if err != nil {
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		if filepath.Base(rel) == campaign.JournalFile {
			if valid := campaign.ValidPrefix(b); valid > 0 && valid < int64(len(b)) {
				// Cut at valid: if the fsync fails, the retry cut is the same.
				if err := mutateDurable(path, valid, func(fh *os.File) error { return fh.Truncate(valid) }); err != nil {
					return fmt.Errorf("remote: cutting torn tail of mirror %s: %w", rel, err)
				}
				c.logf("shard %d: mirror %s cut %d → %d (torn tail dropped before reseeding)\n",
					shardIdx, filepath.ToSlash(rel), len(b), valid)
				b = b[:valid]
			}
		}
		out = append(out, FileState{Path: rel, Data: b, CRC: crc32.ChecksumIEEE(b)})
		return nil
	}
	units, err := os.ReadDir(filepath.Join(shardDir, shard.UnitsDir))
	if err != nil {
		if os.IsNotExist(err) {
			return out, nil
		}
		return nil, err
	}
	sort.Slice(units, func(i, j int) bool { return units[i].Name() < units[j].Name() })
	for _, u := range units {
		if !u.IsDir() {
			continue
		}
		for _, f := range shardFiles {
			if err := add(filepath.Join(shard.UnitsDir, u.Name(), f)); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// remoteHandle adapts a fenced lease to the supervisor's Handle.
type remoteHandle struct {
	c *Coordinator
	w *workerRec
	l *lease
}

// Wait blocks until the attempt resolves (done, fail, or kill).
func (h *remoteHandle) Wait() error {
	<-h.l.done
	h.l.mu.Lock()
	defer h.l.mu.Unlock()
	return h.l.err
}

// Kill fences the attempt: the lease dies first (so not one more byte
// from it can land), then a best-effort cancel tells the worker to stop
// burning cycles — if the network eats it, the worker finds out when
// its next ship is refused as stale.
func (h *remoteHandle) Kill() error {
	h.l.resolve(errKilled)
	h.c.cancel(h.w, h.l)
	return nil
}

// stall fences an attempt whose liveness timer expired, exactly as Kill
// does, with an error the supervisor counts as a stall.
func (c *Coordinator) stall(w *workerRec, l *lease) {
	l.mu.Lock()
	seq := l.seq
	l.mu.Unlock()
	err := fmt.Errorf("%w: no measure call completed for %s (seq %d), attempt %d on %s fenced",
		shard.ErrStalled, c.opt.HeartbeatTimeout, seq, l.attempt, w.ID)
	if l.resolve(err) {
		c.logf("shard %d: %v\n", l.shard, err)
		c.cancel(w, l)
	}
}

// cancel tells the worker, best-effort and in the background, to stop
// a fenced attempt.
func (c *Coordinator) cancel(w *workerRec, l *lease) {
	go func() {
		var resp AssignResponse
		_ = postJSON(c.client, w.Addr+PathCancel, CancelRequest{
			SweepHash: c.sweep.SweepHash,
			Shard:     l.shard,
			Attempt:   l.attempt,
		}, &resp)
	}()
}

// ---- HTTP handlers (worker → coordinator) ----

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !readBody(w, r, &req) {
		return
	}
	if err := req.Validate(); err != nil {
		httpErr(w, http.StatusBadRequest, err)
		return
	}
	c.mu.Lock()
	rec, ok := c.byAddr[req.Addr]
	if !ok {
		rec = &workerRec{
			ID:       fmt.Sprintf("w%03d", c.nextID),
			Addr:     req.Addr,
			Hostname: req.Hostname,
			EnvFP:    req.EnvFingerprint,
			reg:      req,
		}
		c.nextID++
		c.workers = append(c.workers, rec)
		c.byAddr[req.Addr] = rec
		telWorkers.Set(int64(len(c.workers)))
	}
	c.mu.Unlock()
	c.logf("worker %s registered from %s (host %s, env %s)\n", rec.ID, req.Addr, req.Hostname, req.EnvFingerprint[:min(12, len(req.EnvFingerprint))])
	writeJSONResp(w, RegisterResponse{WorkerID: rec.ID, SweepHash: c.sweep.SweepHash, SweepName: c.sweep.Name})
}

// leaseFor fences one mutating message. A nil lease (with reason) means
// refuse — and the refusal is the zombie's signal to stand down.
func (c *Coordinator) leaseFor(sweepHash string, shardIdx, attempt int, workerID string) (*lease, string) {
	if sweepHash != c.sweep.SweepHash {
		return nil, fmt.Sprintf("sweep hash %s is not this coordinator's sweep", sweepHash)
	}
	c.mu.Lock()
	l := c.leases[shardIdx]
	c.mu.Unlock()
	if l == nil {
		return nil, fmt.Sprintf("shard %d has no active attempt", shardIdx)
	}
	if l.attempt != attempt || l.worker != workerID {
		return nil, fmt.Sprintf("shard %d is held by %s attempt %d, not %s attempt %d (stale)",
			shardIdx, l.worker, l.attempt, workerID, attempt)
	}
	if l.isDead() {
		return nil, fmt.Sprintf("shard %d attempt %d was fenced off (stale)", shardIdx, attempt)
	}
	return l, ""
}

func (c *Coordinator) handleChunk(w http.ResponseWriter, r *http.Request) {
	var f ChunkFrame
	if !readBody(w, r, &f) {
		return
	}
	if err := f.Validate(); err != nil {
		telBadFrames.Inc()
		writeJSONResp(w, ChunkResponse{OK: false, Refused: err.Error()})
		return
	}
	l, reason := c.leaseFor(f.SweepHash, f.Shard, f.Attempt, f.WorkerID)
	if reason != "" {
		telStaleRefused.Inc()
		writeJSONResp(w, ChunkResponse{OK: false, Refused: reason, Stale: true})
		return
	}
	writeJSONResp(w, c.applyChunk(l, f))
}

// applyChunk lands one validated, fenced frame in the mirror. The
// response's ResumeOff is always the mirror's post-apply size — the
// single source of truth the worker ships from. Every change is fsynced
// (with the directory entries of new files and directories) before it
// is acknowledged: the mirror is the copy a rerun resumes from, and the
// worker's own journal is scratch that dies with it, so an acknowledged
// sealed record must survive a host crash here. The frame's lease l is
// checked again under fileMu: a lease fenced after leaseFor must not
// land a frame after the next attempt's seed was taken.
func (c *Coordinator) applyChunk(l *lease, f ChunkFrame) ChunkResponse {
	c.fileMu.Lock()
	defer c.fileMu.Unlock()
	if l.isDead() {
		telStaleRefused.Inc()
		return ChunkResponse{OK: false, Stale: true,
			Refused: fmt.Sprintf("shard %d attempt %d was fenced off (stale)", f.Shard, f.Attempt)}
	}
	path := filepath.Join(c.sweepDir, shard.ShardDirName(f.Shard), filepath.FromSlash(f.Path))
	size := int64(0)
	if st, err := os.Stat(path); err == nil {
		size = st.Size()
	}
	switch {
	case f.Off == size:
		if err := mutateDurable(path, size, func(fh *os.File) error {
			_, err := fh.WriteAt(f.Data, size)
			return err
		}); err != nil {
			return ChunkResponse{OK: false, ResumeOff: size, Refused: "mirror write failed: " + err.Error()}
		}
		telChunks.Inc()
		telChunkBytes.Add(int64(len(f.Data)))
		return ChunkResponse{OK: true, ResumeOff: size + int64(len(f.Data))}
	case f.Off < size:
		// Duplicate delivery (a retried or network-duplicated frame):
		// acknowledge without touching the mirror — appends are
		// idempotent because ResumeOff, not the sender's counter, is
		// authoritative.
		telDupChunks.Inc()
		return ChunkResponse{OK: true, ResumeOff: size}
	default:
		// Gap: the worker is ahead of the mirror (a lost earlier chunk).
		return ChunkResponse{OK: false, ResumeOff: size,
			Refused: fmt.Sprintf("offset %d past mirror size %d", f.Off, size)}
	}
}

// mutateDurable applies change to path, which holds size bytes, and
// fsyncs the file. A new file's missing directories are created, and
// every directory that gained an entry is fsynced too. On failure the
// file is cut back to size: bytes whose fsync failed must be shipped
// and synced again, not acknowledged later as duplicates.
func mutateDurable(path string, size int64, change func(*os.File) error) error {
	if size == 0 {
		if err := mkdirDurable(filepath.Dir(path)); err != nil {
			return err
		}
	}
	fh, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err = change(fh); err == nil {
		err = timedSync(fh)
	}
	if err != nil {
		_ = fh.Truncate(size)
	}
	if cerr := fh.Close(); err == nil {
		err = cerr
	}
	if err == nil && size == 0 {
		err = syncDir(filepath.Dir(path))
	}
	return err
}

// mkdirDurable creates dir and any missing parents, fsyncing the parent
// of each directory it creates.
func mkdirDurable(dir string) error {
	if _, err := os.Stat(dir); err == nil {
		return nil
	}
	if err := mkdirDurable(filepath.Dir(dir)); err != nil {
		return err
	}
	if err := os.Mkdir(dir, 0o755); err != nil && !os.IsExist(err) {
		return err
	}
	return syncDir(filepath.Dir(dir))
}

// timedSync fsyncs one mirror file or directory and records the time in
// remote.mirror_fsync_us, whose count is the mirror's fsyncs.
func timedSync(f *os.File) error {
	t0 := time.Now()
	err := syncFile(f)
	telMirrorFsync.Observe(telemetry.Us(time.Since(t0)))
	return err
}

// syncDir fsyncs a directory so the entries created in it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = timedSync(d)
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var m HeartbeatMsg
	if !readBody(w, r, &m) {
		return
	}
	l, reason := c.leaseFor(m.SweepHash, m.Shard, m.Attempt, m.WorkerID)
	if reason != "" {
		telStaleRefused.Inc()
		writeJSONResp(w, ChunkResponse{OK: false, Refused: reason, Stale: true})
		return
	}
	l.progress(m.Seq, c.opt.HeartbeatTimeout)
	telHeartbeats.Inc()
	writeJSONResp(w, ChunkResponse{OK: true})
}

func (c *Coordinator) handleDone(w http.ResponseWriter, r *http.Request) {
	var req DoneRequest
	if !readBody(w, r, &req) {
		return
	}
	l, reason := c.leaseFor(req.SweepHash, req.Shard, req.Attempt, req.WorkerID)
	if reason != "" {
		telStaleRefused.Inc()
		writeJSONResp(w, DoneResponse{OK: false, Refused: reason, Stale: true})
		return
	}
	// Verify the inventory: "done" may only mean "every byte the worker
	// measured is in the mirror". Any mismatch sends back the mirror's
	// truth so the worker re-ships exactly the missing suffixes.
	shardDir := filepath.Join(c.sweepDir, shard.ShardDirName(req.Shard))
	c.fileMu.Lock()
	var mismatched []FileSum
	for _, fs := range req.Files {
		if !ValidChunkPath(fs.Path) {
			c.fileMu.Unlock()
			writeJSONResp(w, DoneResponse{OK: false, Refused: fmt.Sprintf("inventory path %q refused", fs.Path)})
			return
		}
		b, err := os.ReadFile(filepath.Join(shardDir, filepath.FromSlash(fs.Path)))
		if err != nil {
			mismatched = append(mismatched, FileSum{Path: fs.Path, Size: 0})
			continue
		}
		if int64(len(b)) != fs.Size || crc32.ChecksumIEEE(b) != fs.CRC {
			mismatched = append(mismatched, FileSum{Path: fs.Path, Size: int64(len(b)), CRC: crc32.ChecksumIEEE(b)})
		}
	}
	if len(mismatched) > 0 {
		c.fileMu.Unlock()
		writeJSONResp(w, DoneResponse{OK: false, Refused: "mirror incomplete", Mirror: mismatched})
		return
	}
	// Inventory verified: record host provenance (Rule 9, per machine)
	// and publish the completion sentinel the supervisor trusts.
	c.mu.Lock()
	var rec *workerRec
	for _, wr := range c.workers {
		if wr.ID == req.WorkerID {
			rec = wr
			break
		}
	}
	c.mu.Unlock()
	if rec != nil {
		if err := shard.WriteHost(shardDir, shard.HostRecord{
			Hostname:       rec.Hostname,
			EnvFingerprint: rec.EnvFP,
			WorkerID:       rec.ID,
			Addr:           rec.Addr,
			Attempt:        req.Attempt,
		}); err != nil {
			c.fileMu.Unlock()
			writeJSONResp(w, DoneResponse{OK: false, Refused: err.Error()})
			return
		}
	}
	if err := shard.WriteJSON(filepath.Join(shardDir, shard.DoneFile), req.Done); err != nil {
		c.fileMu.Unlock()
		writeJSONResp(w, DoneResponse{OK: false, Refused: err.Error()})
		return
	}
	c.fileMu.Unlock()
	c.logf("shard %d: attempt %d completed by %s, inventory verified (%d files)\n",
		req.Shard, req.Attempt, req.WorkerID, len(req.Files))
	l.resolve(nil)
	writeJSONResp(w, DoneResponse{OK: true})
}

func (c *Coordinator) handleFail(w http.ResponseWriter, r *http.Request) {
	var req FailRequest
	if !readBody(w, r, &req) {
		return
	}
	l, reason := c.leaseFor(req.SweepHash, req.Shard, req.Attempt, req.WorkerID)
	if reason != "" {
		telStaleRefused.Inc()
		writeJSONResp(w, DoneResponse{OK: false, Refused: reason, Stale: true})
		return
	}
	c.logf("shard %d: attempt %d failed on %s: %s\n", req.Shard, req.Attempt, req.WorkerID, req.Error)
	l.resolve(fmt.Errorf("remote: worker %s: %s", req.WorkerID, req.Error))
	writeJSONResp(w, DoneResponse{OK: true})
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.opt.Log != nil {
		fmt.Fprintf(c.opt.Log, format, args...)
	}
}

// ---- shared HTTP plumbing ----

// maxBody bounds any request/response body (a chunk plus JSON framing
// fits comfortably; a seed-laden assignment gets more headroom).
const maxBody = 64 << 20

// readBody decodes a JSON request body, refusing oversized payloads.
func readBody(w http.ResponseWriter, r *http.Request, v any) bool {
	defer r.Body.Close()
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	if err := dec.Decode(v); err != nil {
		httpErr(w, http.StatusBadRequest, fmt.Errorf("remote: decoding request: %w", err))
		return false
	}
	return true
}

func writeJSONResp(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func httpErr(w http.ResponseWriter, code int, err error) {
	http.Error(w, err.Error(), code)
}

// postJSON posts req and decodes the JSON response into resp.
func postJSON(client *http.Client, url string, req, resp any) error {
	b, err := json.Marshal(req)
	if err != nil {
		return err
	}
	hr, err := client.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	defer hr.Body.Close()
	body, err := io.ReadAll(io.LimitReader(hr.Body, maxBody))
	if err != nil {
		return err
	}
	if hr.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s: %s", url, hr.Status, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, resp)
}
