package shard

import (
	"context"
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
// A remote Kill is cooperative: the lease is fenced at once, so not
// one more byte of the attempt lands in the mirror, but the executor
// only stops when it next checks its context — a measure call that
// never returns keeps its goroutine on the worker.
type Handle interface {
	Wait() error
	Kill() error
}

// StartFunc launches one executor attempt on a shard directory.
type StartFunc func(shardDir string, attempt int) (Handle, error)

// Options tunes the supervisor.
type Options struct {
	// HeartbeatTimeout is how long a shard's heartbeat Seq may stay
	// unchanged before the executor is declared stalled and killed.
	// Seq advances only on a beat after a completed measure call, so
	// the timeout must comfortably exceed the beat interval plus the
	// longest gap between two completed calls — which includes a
	// unit's Setup, journal open and replay, and its end-of-unit
	// analysis. Default 5s.
	HeartbeatTimeout time.Duration
	// Poll is the heartbeat check interval (default HeartbeatTimeout/5,
	// floor 10ms).
	Poll time.Duration
	// Retries is the reassignment budget per shard beyond the first
	// attempt (default 2; negative means no retries). A shard that
	// exhausts it is reported lost —
	// explicitly, in its ShardStatus and in the merged report's loss
	// accounting — never silently dropped.
	Retries int
	// Backoff is the delay before the first reassignment, doubling per
	// subsequent one (default 100ms) — the same doubling schedule the
	// resilient collection loop uses for sample retries.
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
// of one shard: Backoff doubled per prior reassignment and saturated at
// maxReassignBackoff, plus a jitter fraction in [0, 0.5) of that base
// derived from (Seed, shard, attempt) via the splitmix64 finalizer. Same
// inputs, same schedule — the supervisor's retry timing is part of the
// experiment, so it is seeded like everything else.
func ReassignBackoff(opt Options, shardIdx, attempt int) time.Duration {
	opt = opt.withDefaults()
	base := opt.Backoff
	for i := 2; i < attempt && base < maxReassignBackoff; i++ {
		base *= 2
	}
	base = min(base, maxReassignBackoff)
	h := rng.Mix64(opt.Seed ^ uint64(shardIdx)*0x9e3779b97f4a7c15 ^ uint64(attempt))
	frac := float64(h>>11) / (1 << 53)
	return base + time.Duration(frac*float64(base)/2)
}

func (o Options) withDefaults() Options {
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = 5 * time.Second
	}
	if o.Poll <= 0 {
		o.Poll = o.HeartbeatTimeout / 5
	}
	if o.Poll < 10*time.Millisecond {
		o.Poll = 10 * time.Millisecond
	}
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
	Stalls   int    // heartbeat-timeout kills
	Crashes  int    // executor exits without a completion sentinel
	Lost     bool   // retry budget exhausted; the shard's incomplete units are losses
	Err      string // last failure, "" on success
}

// Supervise runs every shard of the sweep under fault supervision: one
// executor per shard via start, liveness via the shard's heartbeat
// file, stalled or dead executors killed and reassigned with
// exponential backoff under a retry budget. It returns one ShardStatus
// per shard; exhausted shards come back Lost rather than failing the
// sweep — graceful degradation is the merge's job to account, not the
// supervisor's to hide. The returned error is reserved for setup
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
		stalled, err := runAttempt(ctx, dir, attempt, start, opt)
		if _, ok := LoadDone(dir); ok {
			st.Err = ""
			return st
		}
		if ctx.Err() != nil {
			st.Err = "supervision cancelled"
			return st
		}
		if stalled {
			st.Stalls++
			telStalls.Inc()
			st.Err = fmt.Sprintf("executor stalled (no heartbeat for %s), killed", opt.HeartbeatTimeout)
		} else {
			st.Crashes++
			if err != nil {
				st.Err = fmt.Sprintf("executor died mid-shard: %v", err)
			} else {
				st.Err = "executor exited without completing its shard"
			}
		}
	}
	st.Lost = true
	telLost.Inc()
	logf(opt, "shard %d: LOST after %d attempt(s) (%s); its incomplete units will be "+
		"reported as losses\n", idx, st.Attempts, st.Err)
	return st
}

// runAttempt launches one executor and watches it until exit, killing
// it if its heartbeat Seq stops advancing for longer than the timeout.
// It reports whether the attempt ended in a stall kill, plus the
// executor's exit error.
func runAttempt(ctx context.Context, dir string, attempt int, start StartFunc, opt Options) (stalled bool, err error) {
	h, err := start(dir, attempt)
	if err != nil {
		return false, fmt.Errorf("starting executor: %w", err)
	}
	exited := make(chan error, 1)
	go func() { exited <- h.Wait() }()

	// Liveness is "Seq advanced", nothing else: wall-clock steps and the
	// stale Time a killed process left behind cannot fake it.
	var lastSeq uint64
	if hb, ok := ReadHeartbeat(dir); ok {
		lastSeq = hb.Seq
	}
	lastAdvance := time.Now()
	tick := time.NewTicker(opt.Poll)
	defer tick.Stop()
	for {
		select {
		case err := <-exited:
			return false, err
		case <-ctx.Done():
			_ = h.Kill()
			<-exited
			return false, ctx.Err()
		case <-tick.C:
			if hb, ok := ReadHeartbeat(dir); ok && hb.Seq != lastSeq {
				lastSeq = hb.Seq
				lastAdvance = time.Now()
				continue
			}
			if time.Since(lastAdvance) > opt.HeartbeatTimeout {
				logf(opt, "shard %s: heartbeat stalled at seq %d, killing executor\n",
					filepath.Base(dir), lastSeq)
				_ = h.Kill()
				<-exited
				return true, nil
			}
		}
	}
}

func logf(opt Options, format string, args ...any) {
	if opt.Log != nil {
		fmt.Fprintf(opt.Log, format, args...)
	}
}
