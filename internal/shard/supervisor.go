package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/telemetry"

	"repro/internal/rng"
)

// Telemetry: supervisor-side fault accounting.
var (
	telStarts  = telemetry.Default().Counter("shard.executors_started")
	telStalls  = telemetry.Default().Counter("shard.stalls")
	telRetries = telemetry.Default().Counter("shard.reassignments")
	telLost    = telemetry.Default().Counter("shard.lost")
)

// Handle is a running executor as the supervisor sees it: something it
// can wait on and kill. The remote coordinator's handles wrap a fenced
// lease on a worker; tests may supply in-process fakes or processes.
// A Wait error wrapping ErrStalled marks an attempt its launcher fenced
// for lack of progress. A remote Kill is cooperative: the lease is
// fenced at once, so not one more byte of the attempt lands in the
// mirror, but the executor only stops when it next checks its context —
// a measure call that never returns keeps its goroutine on the worker.
type Handle interface {
	Wait() error
	Kill() error
}

// StartFunc launches one executor attempt on a shard directory.
type StartFunc func(shardDir string, attempt int) (Handle, error)

// Options tunes the supervisor.
type Options struct {
	// Retries is the reassignment budget per shard beyond the first
	// attempt (default 2; negative means no retries). A shard that
	// exhausts it is reported lost —
	// explicitly, in its ShardStatus and in the merged report's loss
	// accounting — never silently dropped.
	Retries int
	// Backoff is the delay before the first reassignment, doubling per
	// subsequent one (default 100ms) — the SeededBackoff schedule the
	// remote transport's retry loops use too.
	Backoff time.Duration
	// Seed derives the reassignment jitter deterministically (campaign
	// seed by convention). Jitter spreads concurrent reassignments in
	// [1, 1.5)× the exponential base so shards that stall together do
	// not restart together, and because it is seeded, a test replays
	// the exact reassignment schedule instead of sampling the clock.
	Seed uint64
	// Log, when non-nil, receives one line per supervision event
	// (start, stall, reassignment, loss).
	Log io.Writer
}

// maxReassignBackoff caps the exponential base of ReassignBackoff, so a
// large Retries budget neither waits for days nor overflows the shift.
const maxReassignBackoff = time.Minute

// ReassignBackoff is the delay before reassignment attempt (attempt ≥ 2)
// of one shard: SeededBackoff from Backoff, keyed by the shard.
func ReassignBackoff(opt Options, shardIdx, attempt int) time.Duration {
	opt = opt.withDefaults()
	return SeededBackoff(opt.Seed, uint64(shardIdx)*0x9e3779b97f4a7c15, attempt-1, opt.Backoff, maxReassignBackoff)
}

// SeededBackoff is the retry schedule of every failure path here and in
// the remote transport: before retry try (≥ 1), base doubled per prior
// try and saturated at ceiling, plus a jitter in [0, 0.5) of that from
// (seed, key, try) via splitmix64 — seeded, so a test replays a retry
// storm exactly, and retriers with different keys spread out.
func SeededBackoff(seed, key uint64, try int, base, ceiling time.Duration) time.Duration {
	d := base
	for i := 1; i < try && d < ceiling; i++ {
		d *= 2
	}
	d = min(d, ceiling)
	frac := float64(rng.Mix64(seed^key^uint64(try))>>11) / (1 << 53)
	return d + time.Duration(frac*float64(d)/2)
}

func (o Options) withDefaults() Options {
	if o.Retries == 0 {
		o.Retries = 2
	}
	if o.Retries < 0 {
		o.Retries = 0
	}
	if o.Backoff <= 0 {
		o.Backoff = 100 * time.Millisecond
	}
	return o
}

// ShardStatus is the supervision outcome of one shard.
type ShardStatus struct {
	Shard    int
	Attempts int    // executor attempts launched
	Stalls   int    // attempts whose Wait reported ErrStalled
	Crashes  int    // executor exits without a completion sentinel
	Lost     bool   // retry budget exhausted; the shard's incomplete units are losses
	Err      string // last failure, "" on success
}

// Supervise runs every shard of the sweep under fault supervision: one
// executor per shard via start, and an attempt that ends without the
// shard's done.json — dead, or stalled and fenced by its launcher — is
// reassigned with exponential backoff under a retry budget. It returns
// one ShardStatus per shard; exhausted shards come back Lost rather
// than failing the sweep — graceful degradation is the merge's job to
// account, not the supervisor's to hide. The returned error is reserved for setup
// failures (no sweep in dir) and context cancellation.
func Supervise(ctx context.Context, sweepDir string, start StartFunc, opt Options) ([]ShardStatus, error) {
	sw, err := LoadSweep(sweepDir)
	if err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	n := len(Partition(len(sw.Units), sw.NumShards))
	statuses := make([]ShardStatus, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, span := telemetry.StartSpan(ctx, "shard", fmt.Sprintf("supervise shard %d", i))
			defer span.End()
			statuses[i] = superviseShard(ctx, filepath.Join(sweepDir, ShardDirName(i)), i, start, opt)
		}(i)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return statuses, fmt.Errorf("shard: supervision cancelled: %w", err)
	}
	return statuses, nil
}

// superviseShard drives one shard through its attempts.
func superviseShard(ctx context.Context, dir string, idx int, start StartFunc, opt Options) ShardStatus {
	st := ShardStatus{Shard: idx}
	for attempt := 1; attempt <= 1+opt.Retries; attempt++ {
		// A completed shard needs no executor — covers both re-running a
		// half-finished sweep and the race where a "stalled" executor
		// finished just as it was killed.
		if _, ok := LoadDone(dir); ok {
			st.Err = ""
			return st
		}
		if attempt > 1 {
			telRetries.Inc()
			backoff := ReassignBackoff(opt, idx, attempt)
			logf(opt, "shard %d: reassigning (attempt %d/%d) after %s backoff: %s\n",
				idx, attempt, 1+opt.Retries, backoff, st.Err)
			select {
			case <-ctx.Done():
				st.Err = "supervision cancelled"
				return st
			case <-time.After(backoff):
			}
		}
		st.Attempts++
		telStarts.Inc()
		err := runAttempt(ctx, dir, attempt, start)
		if _, ok := LoadDone(dir); ok {
			st.Err = ""
			return st
		}
		if ctx.Err() != nil {
			st.Err = "supervision cancelled"
			return st
		}
		switch {
		case errors.Is(err, ErrStalled):
			st.Stalls++
			telStalls.Inc()
			st.Err = err.Error()
		case err != nil:
			st.Crashes++
			st.Err = fmt.Sprintf("executor died mid-shard: %v", err)
		default:
			st.Crashes++
			st.Err = "executor exited without completing its shard"
		}
	}
	st.Lost = true
	telLost.Inc()
	logf(opt, "shard %d: LOST after %d attempt(s) (%s); its incomplete units will be "+
		"reported as losses\n", idx, st.Attempts, st.Err)
	return st
}

// runAttempt launches one executor and waits for it to exit, killing
// it if the supervision is cancelled first. It returns the executor's
// exit error.
func runAttempt(ctx context.Context, dir string, attempt int, start StartFunc) error {
	h, err := start(dir, attempt)
	if err != nil {
		return fmt.Errorf("starting executor: %w", err)
	}
	exited := make(chan error, 1)
	go func() { exited <- h.Wait() }()
	select {
	case err := <-exited:
		return err
	case <-ctx.Done():
		_ = h.Kill()
		<-exited
		return ctx.Err()
	}
}

func logf(opt Options, format string, args ...any) {
	if opt.Log != nil {
		fmt.Fprintf(opt.Log, format, args...)
	}
}
