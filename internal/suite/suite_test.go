package suite

import (
	"context"
	"errors"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/cluster"
)

func quickConfig() Config {
	return Config{
		Cluster:     cluster.PizDaint(),
		Collectives: []string{Reduce, Bcast, Barrier},
		Ranks:       []int{2, 4, 8, 16},
		Bytes:       []int{8},
		MinRuns:     10,
		MaxRuns:     40,
		RelErr:      0.2,
		Seed:        1,
	}
}

func TestRunSuite(t *testing.T) {
	res, err := Run(context.Background(), quickConfig(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	// 3 collectives × 4 process counts (barrier measured once per size).
	if len(res.Rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.MedianUs <= 0 {
			t.Errorf("%s p=%d: non-positive median", r.Collective, r.Ranks)
		}
		if r.CILoUs > r.MedianUs || r.MedianUs > r.CIHiUs {
			t.Errorf("%s p=%d: median %.4g outside its CI [%.4g, %.4g]",
				r.Collective, r.Ranks, r.MedianUs, r.CILoUs, r.CIHiUs)
		}
		if r.P99Us < r.MedianUs {
			t.Errorf("%s p=%d: p99 below median", r.Collective, r.Ranks)
		}
		if r.N < 10 || r.N > 40 {
			t.Errorf("%s p=%d: n=%d outside budget", r.Collective, r.Ranks, r.N)
		}
	}
	// Scaling models fitted for each collective.
	if len(res.Models) != 3 {
		t.Errorf("models = %d, want 3: %v", len(res.Models), res.Models)
	}
	for name, m := range res.Models {
		if m.Eval(16) <= 0 {
			t.Errorf("model %s evaluates non-positive", name)
		}
	}
}

func TestSuiteMediansGrowWithP(t *testing.T) {
	res, err := Run(context.Background(), quickConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	byColl := map[string][]Row{}
	for _, r := range res.Rows {
		byColl[r.Collective] = append(byColl[r.Collective], r)
	}
	for coll, rows := range byColl {
		if rows[len(rows)-1].MedianUs <= rows[0].MedianUs {
			t.Errorf("%s: median at p=%d (%.4g) not above p=%d (%.4g)",
				coll, rows[len(rows)-1].Ranks, rows[len(rows)-1].MedianUs,
				rows[0].Ranks, rows[0].MedianUs)
		}
	}
}

func TestSuiteAllCollectivesRun(t *testing.T) {
	cfg := quickConfig()
	cfg.Collectives = nil // default: all
	cfg.Ranks = []int{2, 5}
	cfg.MinRuns = 5
	cfg.MaxRuns = 8
	res, err := Run(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range res.Rows {
		seen[r.Collective] = true
	}
	for _, c := range AllCollectives {
		if !seen[c] {
			t.Errorf("collective %s never ran", c)
		}
	}
}

func TestSuiteValidation(t *testing.T) {
	cfg := quickConfig()
	cfg.Collectives = []string{"mystery"}
	if _, err := Run(context.Background(), cfg, nil); err == nil {
		t.Error("unknown collective should error")
	}
	// A NaN level once slipped through every range check and panicked
	// in the rank arithmetic of the median CI.
	cfg = quickConfig()
	cfg.Confidence = math.NaN()
	if _, err := Run(context.Background(), cfg, nil); !errors.Is(err, bench.ErrBadPlan) {
		t.Errorf("NaN confidence: err = %v, want bench.ErrBadPlan", err)
	}
}

func TestWriteReport(t *testing.T) {
	res, err := Run(context.Background(), quickConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := res.WriteReport(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"reduce", "bcast", "barrier", "fitted scaling models", "median"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestSuiteDeterministicUnderSeed(t *testing.T) {
	a, err := Run(context.Background(), quickConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), quickConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rows {
		if a.Rows[i] != b.Rows[i] {
			t.Fatalf("row %d diverged under the same seed", i)
		}
	}
}

func TestSuiteInterrupted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the first observation
	res, err := Run(ctx, quickConfig(), nil)
	if err != nil {
		t.Fatalf("interrupted sweep must return a partial result, got error: %v", err)
	}
	if !res.Interrupted {
		t.Error("Interrupted not set on a cancelled sweep")
	}
	var sb strings.Builder
	if err := res.WriteReport(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "PARTIAL") {
		t.Error("report does not label an interrupted sweep as partial")
	}
}

func TestSuiteResilienceWired(t *testing.T) {
	cfg := quickConfig()
	cfg.Collectives = []string{Reduce}
	cfg.Ranks = []int{4}
	clean, err := Run(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Rows[0].Stop == "" {
		t.Error("row carries no stop reason")
	}

	// A ceiling at the clean median rejects roughly half of all draws;
	// with a single retry per slot, ~25% of observation slots are lost,
	// far past a 10% degradation threshold — the row must surface
	// StopDegraded with its loss accounting rather than masquerade as a
	// clean measurement.
	cfg.Resilience = &bench.Resilience{
		ValueCeiling:    clean.Rows[0].MedianUs,
		MaxRetries:      1,
		MaxLossFraction: 0.1,
	}
	res, err := Run(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	if row.Stop != bench.StopDegraded {
		t.Fatalf("stop = %q, want StopDegraded", row.Stop)
	}
	if row.SamplesLost == 0 {
		t.Error("degraded row reports zero losses")
	}
	var sb strings.Builder
	if err := res.WriteReport(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "DEGRADED") {
		t.Error("report does not flag the degraded row")
	}
	if !strings.Contains(out, "observation slot") {
		t.Error("report does not summarize the sweep's losses")
	}
}

func TestSuiteStreamsProgress(t *testing.T) {
	var sb strings.Builder
	cfg := quickConfig()
	cfg.Collectives = []string{Reduce}
	cfg.Ranks = []int{2, 4}
	if _, err := Run(context.Background(), cfg, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "reduce") {
		t.Error("no progress streamed")
	}
}

func TestSuiteWorkerCountBitIdentity(t *testing.T) {
	runWith := func(workers int) (*Result, string, string) {
		cfg := quickConfig()
		cfg.Workers = workers
		var progress strings.Builder
		res, err := Run(context.Background(), cfg, &progress)
		if err != nil {
			t.Fatalf("Workers=%d: %v", workers, err)
		}
		var rep strings.Builder
		if err := res.WriteReport(&rep); err != nil {
			t.Fatalf("Workers=%d: WriteReport: %v", workers, err)
		}
		return res, progress.String(), rep.String()
	}

	serial, serialProgress, serialReport := runWith(1)
	for _, workers := range []int{2, 8} {
		par, progress, report := runWith(workers)
		if len(par.Rows) != len(serial.Rows) {
			t.Fatalf("Workers=%d: %d rows, serial has %d", workers, len(par.Rows), len(serial.Rows))
		}
		for i := range serial.Rows {
			if par.Rows[i] != serial.Rows[i] {
				t.Errorf("Workers=%d: row %d differs from serial:\n  serial   %+v\n  parallel %+v",
					workers, i, serial.Rows[i], par.Rows[i])
			}
		}
		if len(par.Models) != len(serial.Models) {
			t.Errorf("Workers=%d: %d models, serial has %d", workers, len(par.Models), len(serial.Models))
		}
		for k, m := range serial.Models {
			if par.Models[k] != m {
				t.Errorf("Workers=%d: model %s differs from serial", workers, k)
			}
		}
		if progress != serialProgress {
			t.Errorf("Workers=%d: progress stream not byte-identical to serial", workers)
		}
		if report != serialReport {
			t.Errorf("Workers=%d: rendered report not byte-identical to serial", workers)
		}
	}
}

// cancelAfterWriter cancels a context once n progress lines were
// written, interrupting a sweep from inside its own progress stream.
type cancelAfterWriter struct {
	lines  int
	cancel context.CancelFunc
	sb     strings.Builder
}

func (w *cancelAfterWriter) Write(p []byte) (int, error) {
	w.sb.Write(p)
	w.lines -= strings.Count(string(p), "\n")
	if w.lines <= 0 {
		w.cancel()
	}
	return len(p), nil
}

func TestSuiteInterruptedUnderParallelism(t *testing.T) {
	cfg := quickConfig()
	cfg.Workers = 4
	cfg.Collectives = []string{Reduce, Bcast, Allreduce, Gather, Scatter}
	cfg.Ranks = []int{2, 4, 8, 16, 32}
	// A target the adaptive loop cannot reach keeps every configuration
	// busy until its 5000-sample budget, so the cancellation triggered by
	// the first progress line reliably lands mid-sweep.
	cfg.MinRuns = 200
	cfg.MaxRuns = 5000
	cfg.RelErr = 0.001
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &cancelAfterWriter{lines: 1, cancel: cancel}
	res, err := Run(ctx, cfg, w)
	if err != nil {
		t.Fatalf("interrupted sweep must return a partial result, got error: %v", err)
	}
	if !res.Interrupted {
		t.Fatal("Interrupted not set on a sweep cancelled mid-flight")
	}
	if len(res.Rows) == 0 {
		t.Fatal("no completed rows checkpointed")
	}
	if len(res.Rows) >= 25 {
		t.Fatalf("all %d rows completed; the cancellation did not interrupt the sweep", len(res.Rows))
	}
	// The checkpointed rows must be an in-order subsequence of the
	// canonical sweep and individually valid.
	jobs, _ := enumerate(cfg.withDefaults())
	ji := 0
	for _, r := range res.Rows {
		for ji < len(jobs) &&
			(jobs[ji].coll != r.Collective || jobs[ji].ranks != r.Ranks || jobs[ji].bytes != r.Bytes) {
			ji++
		}
		if ji == len(jobs) {
			t.Fatalf("row %s p=%d not in canonical order", r.Collective, r.Ranks)
		}
		ji++
		if r.Stop != bench.StopInterrupted && r.MedianUs <= 0 {
			t.Errorf("%s p=%d: checkpointed row has non-positive median", r.Collective, r.Ranks)
		}
	}
	var sb strings.Builder
	if err := res.WriteReport(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "PARTIAL") {
		t.Error("report does not label the interrupted sweep as partial")
	}
}
