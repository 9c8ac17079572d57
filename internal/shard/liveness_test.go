package shard_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/remote"
	"repro/internal/shard"
)

// wedgeRunner's measure blocks after k completed calls until release is
// closed — an observation that hangs inside a live executor.
type wedgeRunner struct {
	inner   shard.UnitRunner
	k       int64
	calls   atomic.Int64
	release chan struct{}
}

func (r *wedgeRunner) Setup(u shard.Unit) (campaign.Manifest, bench.Plan, func() (float64, error), error) {
	man, plan, measure, err := r.inner.Setup(u)
	if err != nil {
		return man, plan, measure, err
	}
	return man, plan, func() (float64, error) {
		if r.calls.Add(1) > r.k {
			<-r.release
		}
		return measure()
	}, nil
}

// seqRecorder is a worker transport that notes the Seq of every
// progress report on its way to the coordinator.
type seqRecorder struct {
	mu   sync.Mutex
	seqs []uint64
}

func (s *seqRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == remote.PathHeartbeat && req.Body != nil {
		body, err := io.ReadAll(req.Body)
		if err != nil {
			return nil, err
		}
		req.Body.Close()
		var m remote.HeartbeatMsg
		if json.Unmarshal(body, &m) == nil {
			s.mu.Lock()
			s.seqs = append(s.seqs, m.Seq)
			s.mu.Unlock()
		}
		req.Body = io.NopCloser(bytes.NewReader(body))
	}
	return http.DefaultTransport.RoundTrip(req)
}

func (s *seqRecorder) snapshot() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]uint64(nil), s.seqs...)
}

// TestHeartbeatStopsWhenMeasureWedges: the progress a stall verdict
// rests on counts completed measure calls, not a live goroutine. A
// remote worker whose measure wedges keeps posting progress reports,
// but their Seq stops at the count of completed calls, so the
// coordinator's lease timer can fence the attempt and Supervise can
// count the stall.
func TestHeartbeatStopsWhenMeasureWedges(t *testing.T) {
	const ship = 20 * time.Millisecond
	dir := filepath.Join(t.TempDir(), "sweep")
	shard.BuildSweep(t, dir, 1, 1)
	c, err := remote.NewCoordinator(dir, remote.CoordinatorOptions{Seed: 1, HeartbeatTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rec := &seqRecorder{}
	r := &wedgeRunner{inner: shard.NewTestRunner(1000), k: 5, release: make(chan struct{})}
	w, err := remote.StartWorker(remote.WorkerOptions{
		Coordinator:  c.URL(),
		WorkDir:      filepath.Join(t.TempDir(), "work"),
		Runner:       r,
		Hostname:     "host-a",
		ShipInterval: ship,
		Transport:    rec,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.WaitForWorkers(ctx, 1); err != nil {
		t.Fatal(err)
	}
	h, err := c.StartFunc()(filepath.Join(dir, shard.ShardDirName(0)), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = h.Kill()
		close(r.release) // before w.Close, which waits for the wedged job
		_ = h.Wait()
	}()

	deadline := time.Now().Add(10 * time.Second)
	for r.calls.Load() <= r.k {
		if time.Now().After(deadline) {
			t.Fatal("measure never wedged")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(3 * ship)
	before := len(rec.snapshot())
	time.Sleep(10 * ship)
	seqs := rec.snapshot()
	if len(seqs) < before+3 {
		t.Fatalf("worker stopped reporting while measure was wedged: %d reports before, %d after", before, len(seqs))
	}
	for _, s := range seqs[before:] {
		if s != uint64(r.k) {
			t.Fatalf("progress reported as seq %d while measure was wedged after %d completed calls (reports %v)", s, r.k, seqs)
		}
	}
}
