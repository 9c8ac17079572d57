package shard

import (
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// HeartbeatFile is the executor liveness file inside a shard directory.
const HeartbeatFile = "heartbeat.json"

// Heartbeat is one liveness record. Seq is a monotonic sequence number
// that keeps counting across executor attempts: a reassigned executor
// reads the last heartbeat and continues from its Seq, so the
// supervisor's only liveness signal is "Seq advanced", which is immune
// to wall-clock steps and to stale timestamps left by a killed process.
type Heartbeat struct {
	Seq     uint64 `json:"seq"`
	PID     int    `json:"pid"`
	Attempt int    `json:"attempt"`
	// Unit names the unit the executor is currently measuring
	// (informational, for operators reading the file).
	Unit string    `json:"unit,omitempty"`
	Time time.Time `json:"time"`
}

// ReadHeartbeat reads the shard's heartbeat file. ok is false when no
// executor has ever beaten (or the file is unreadable/corrupt — a torn
// heartbeat is indistinguishable from a missing one and treated the
// same: no liveness evidence).
func ReadHeartbeat(shardDir string) (hb Heartbeat, ok bool) {
	if err := readJSON(filepath.Join(shardDir, HeartbeatFile), &hb); err != nil {
		return Heartbeat{}, false
	}
	return hb, true
}

// WriteHeartbeat publishes a heartbeat into a shard directory with the
// same atomic temp+rename discipline the in-process beater uses. It is
// the mirroring half of remote supervision: a coordinator forwards a
// worker's heartbeat into its local mirror of the shard, and the
// supervisor's Seq-advance poll works across the wire unchanged.
func WriteHeartbeat(shardDir string, hb Heartbeat) error {
	return WriteJSON(filepath.Join(shardDir, HeartbeatFile), hb)
}

// beater publishes heartbeats for one executor attempt. It resumes the
// sequence from any heartbeat left by a previous attempt and ticks on a
// fixed interval until Stop. A tick advances Seq only if a measurement
// completed since the previous beat: a live goroutine beside a wedged
// measure is not progress, and the supervisor must see it stall.
type beater struct {
	dir      string
	interval time.Duration
	calls    atomic.Uint64 // completed measure calls (see counted)

	mu   sync.Mutex
	hb   Heartbeat
	stop chan struct{}
	done chan struct{}
}

// startBeater begins heartbeating shardDir at the given interval,
// continuing the sequence across attempts. The first beat is written
// synchronously so the supervisor sees liveness before the first tick.
func startBeater(shardDir string, attempt int, interval time.Duration) *beater {
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	b := &beater{
		dir:      shardDir,
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	prev, _ := ReadHeartbeat(shardDir)
	b.hb = Heartbeat{Seq: prev.Seq, PID: os.Getpid(), Attempt: attempt}
	b.beat()
	go b.loop()
	return b
}

func (b *beater) loop() {
	defer close(b.done)
	t := time.NewTicker(b.interval)
	defer t.Stop()
	var seen uint64
	for {
		select {
		case <-b.stop:
			return
		case <-t.C:
			if n := b.calls.Load(); n != seen {
				seen = n
				b.beat()
			}
		}
	}
}

// counted wraps a unit's measure so every completed call is progress
// the next beat reports.
func (b *beater) counted(measure func() (float64, error)) func() (float64, error) {
	return func() (float64, error) {
		v, err := measure()
		b.calls.Add(1)
		return v, err
	}
}

// beat publishes the next heartbeat (atomic temp+rename, like every
// manifest write: a SIGKILL mid-beat leaves the previous heartbeat
// intact, never a torn file).
func (b *beater) beat() {
	b.mu.Lock()
	b.hb.Seq++
	b.hb.Time = time.Now().UTC()
	hb := b.hb
	b.mu.Unlock()
	// A failed write is not fatal to the measurement: the executor keeps
	// running and the supervisor will kill it only if beats stay absent
	// past the timeout — which is the correct reaction to a shard
	// directory that stopped accepting writes.
	_ = WriteJSON(filepath.Join(b.dir, HeartbeatFile), hb)
}

// setUnit labels subsequent heartbeats with the unit in progress.
func (b *beater) setUnit(id string) {
	b.mu.Lock()
	b.hb.Unit = id
	b.mu.Unlock()
}

// Stop ends the heartbeat loop (the file is left in place; Seq resumes
// from it on the next attempt).
func (b *beater) Stop() {
	close(b.stop)
	<-b.done
}
