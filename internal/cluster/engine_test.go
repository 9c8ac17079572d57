package cluster

import (
	"math"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/faults"
)

// noisyFaultCfg returns a noisy system plus a fault schedule, the
// hardest case for evaluation-order invariance: every message draws
// noise, some draw retransmits, and a node straggles.
func noisyFaultCfg() Config {
	cfg := PizDaint()
	cfg.Faults = &faults.Schedule{
		Stragglers: []faults.Straggler{{Node: 3, Factor: 2.5, Start: 0}},
		Bursts:     []faults.Burst{{Start: 50 * time.Microsecond, Duration: 450 * time.Microsecond, Factor: 3}},
		Loss:       &faults.Loss{Prob: 0.02, Timeout: 20 * time.Microsecond, Backoff: 2, MaxRetries: 2},
	}
	return cfg
}

// TestCollectiveBatchWorkerInvariance is the tentpole determinism
// golden test: for a fixed seed, collective output must be bit-identical
// for every worker count, including fault accounting.
// P=5000 makes the large tree levels (2048+) cross the parallel cutoff
// so the worker pool really runs.
func TestCollectiveBatchWorkerInvariance(t *testing.T) {
	const p = 5000
	const seed = 424242
	skew := make([]time.Duration, p)
	for r := range skew {
		skew[r] = time.Duration(r%7) * time.Microsecond
	}
	collectives := map[string]func(*Machine) CollectiveResult{
		"reduce":    func(m *Machine) CollectiveResult { return m.Reduce(64, skew) },
		"bcast":     func(m *Machine) CollectiveResult { return m.Bcast(64, skew) },
		"barrier":   func(m *Machine) CollectiveResult { return m.Barrier(skew) },
		"allreduce": func(m *Machine) CollectiveResult { return m.Allreduce(64, skew) },
		"gather":    func(m *Machine) CollectiveResult { return m.Gather(64, skew) },
		"scatter":   func(m *Machine) CollectiveResult { return m.Scatter(64, skew) },
	}
	// 0 is the shipped default — it resolves to min(GOMAXPROCS,
	// level/2048) workers, so the reference run itself exercises the
	// auto fan-out; -1 and 1 force the serial path it must match
	// bit-for-bit.
	workerCounts := []int{0, -1, 1, 2, 8}
	for name, run := range collectives {
		var ref CollectiveResult
		var refStats FaultStats
		for i, workers := range workerCounts {
			m := mustNew(t, noisyFaultCfg(), p, seed)
			m.collWorkers = workers
			got := run(m)
			if i == 0 {
				ref = got
				refStats = m.FaultStats()
				if len(ref.PerRank) != p {
					t.Fatalf("%s: reference run not in exact mode", name)
				}
				continue
			}
			if got.Root != ref.Root || got.Max() != ref.Max() {
				t.Errorf("%s workers=%d: root/max %v/%v, want %v/%v",
					name, workers, got.Root, got.Max(), ref.Root, ref.Max())
			}
			for r := range ref.PerRank {
				if got.PerRank[r] != ref.PerRank[r] {
					t.Fatalf("%s workers=%d: rank %d = %v, want %v",
						name, workers, r, got.PerRank[r], ref.PerRank[r])
				}
			}
			if m.FaultStats() != refStats {
				t.Errorf("%s workers=%d: fault stats %+v, want %+v",
					name, workers, m.FaultStats(), refStats)
			}
		}
	}
}

// TestRingCollectivesBatchInvariance covers the ring/pairwise
// collectives at a size where runs stay cheap (their message count is
// Θ(p²)); the engine path is the same runLevel machinery.
func TestRingCollectivesBatchInvariance(t *testing.T) {
	const p = 300
	for name, run := range map[string]func(*Machine) CollectiveResult{
		"allgather": func(m *Machine) CollectiveResult { return m.Allgather(64, nil) },
		"alltoall":  func(m *Machine) CollectiveResult { return m.Alltoall(64, nil) },
	} {
		var ref CollectiveResult
		for i, workers := range []int{0, 2, 8} {
			m := mustNew(t, noisyFaultCfg(), p, 99)
			m.collWorkers = workers
			got := run(m)
			if i == 0 {
				ref = got
				continue
			}
			for r := range ref.PerRank {
				if got.PerRank[r] != ref.PerRank[r] {
					t.Fatalf("%s workers=%d: rank %d differs", name, workers, r)
				}
			}
		}
	}
}

// TestSummaryBoundary pins the exact/summary switch: identical seeds
// must produce bit-identical Max/Root whichever way the result is
// packaged, auto mode must match forced per-rank below the threshold
// bit-for-bit, and the sketch must describe all P ranks.
func TestSummaryBoundary(t *testing.T) {
	const p = 600
	const seed = 7
	build := func(mode ResultMode, threshold int) *Machine {
		cfg := noisyFaultCfg()
		cfg.ResultMode = mode
		cfg.SummaryThreshold = threshold
		return mustNew(t, cfg, p, seed)
	}

	exact := build(ModePerRank, 0).Allreduce(64, nil)
	summary := build(ModeSummary, 0).Allreduce(64, nil)
	autoBelow := build(ModeAuto, p+1).Allreduce(64, nil)
	autoAbove := build(ModeAuto, p).Allreduce(64, nil)

	if len(exact.PerRank) != p || exact.Summary != nil {
		t.Fatal("ModePerRank must materialize PerRank and no sketch")
	}
	if summary.PerRank != nil || summary.Summary == nil {
		t.Fatal("ModeSummary must return a sketch and no PerRank")
	}
	if summary.Summary.Count() != uint64(p) {
		t.Errorf("sketch count = %d, want %d", summary.Summary.Count(), p)
	}
	if summary.Max() != exact.Max() || summary.Root != exact.Root || summary.Ranks != exact.Ranks {
		t.Errorf("summary (max %v root %v) != exact (max %v root %v)",
			summary.Max(), summary.Root, exact.Max(), exact.Root)
	}
	if got, want := summary.Summary.Max(), exact.Max().Seconds(); got != want {
		t.Errorf("sketch max %g != exact max %g", got, want)
	}
	// Below the threshold, auto is bit-identical to forced per-rank.
	if len(autoBelow.PerRank) != p {
		t.Fatal("auto below threshold must stay exact")
	}
	for r := range exact.PerRank {
		if autoBelow.PerRank[r] != exact.PerRank[r] {
			t.Fatalf("auto below threshold diverges at rank %d", r)
		}
	}
	// At the threshold, auto switches to the summary representation of
	// the same run.
	if autoAbove.PerRank != nil || autoAbove.Summary == nil {
		t.Fatal("auto at threshold must summarize")
	}
	if autoAbove.Max() != exact.Max() {
		t.Errorf("auto summary max %v != exact %v", autoAbove.Max(), exact.Max())
	}
	// The sketch quantiles must be bracketed by the exact extremes.
	med := autoAbove.Summary.Quantile(0.5)
	if med < autoAbove.Summary.Min() || med > autoAbove.Summary.Max() {
		t.Errorf("sketch median %g outside [min,max]", med)
	}
}

// TestExactPerRankOverride pins the escape hatch consumers like HPL and
// the sync schemes use.
func TestExactPerRankOverride(t *testing.T) {
	cfg := Quiet(64, 8)
	cfg.ResultMode = ModeSummary
	m := mustNew(t, cfg, 128, 3)
	if res := m.Reduce(8, nil); res.PerRank != nil {
		t.Fatal("ModeSummary should not materialize PerRank")
	}
	restore := m.ExactPerRank()
	if res := m.Reduce(8, nil); len(res.PerRank) != 128 {
		t.Fatal("ExactPerRank must force per-rank results")
	}
	restore()
	if res := m.Reduce(8, nil); res.PerRank != nil {
		t.Fatal("restore must re-enable summary mode")
	}
	// The sync schemes force exact mode internally even under ModeSummary.
	if sync := m.BarrierSync(); len(sync.Skew) != 128 {
		t.Fatal("BarrierSync must produce per-rank skews in summary mode")
	}
	if sync := m.DelayWindowSync(time.Millisecond, 2); len(sync.Skew) != 128 {
		t.Fatal("DelayWindowSync must produce per-rank skews in summary mode")
	}
}

// TestDefaultCollectiveWorkers pins the level fan-out: parallel by
// default, scaled so each worker owns at least one minimum-size run,
// never exceeding GOMAXPROCS, floored at 1.
func TestDefaultCollectiveWorkers(t *testing.T) {
	maxProcs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ n, want int }{
		{0, 1},
		{minParallelRound - 1, 1},
		{minParallelRound, 1},
		{2 * minParallelRound, min(2, maxProcs)},
		{1 << 20, min((1<<20)/minParallelRound, maxProcs)},
	} {
		if got := defaultCollectiveWorkers(tc.n); got != tc.want {
			t.Errorf("defaultCollectiveWorkers(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

// TestSummaryQuantilesMatchExact quantifies the summary-mode error at
// P=2^16, the default summary threshold: the same seeded Allreduce,
// packaged per rank and as a summary, must agree exactly on count and
// extremes, and every reported quantile must lie within the histogram's
// 1/64 relative error of the exact nearest-rank order statistic.
func TestSummaryQuantilesMatchExact(t *testing.T) {
	const p = 1 << 16
	const seed = 5
	run := func(mode ResultMode) CollectiveResult {
		cfg := noisyFaultCfg()
		cfg.Nodes = p / cfg.CoresPerNode // Daint's noise, grown to 2^16 cores
		cfg.ResultMode = mode
		return mustNew(t, cfg, p, seed).Allreduce(64, nil)
	}
	exact, summary := run(ModePerRank), run(ModeSummary)
	xs := exact.PerRankSeconds()
	sort.Float64s(xs)
	h := summary.Summary
	if h.Count() != p || h.Min() != xs[0] || h.Max() != xs[p-1] {
		t.Fatalf("count/min/max = %d/%g/%g, want %d/%g/%g exactly",
			h.Count(), h.Min(), h.Max(), p, xs[0], xs[p-1])
	}
	worst := 0.0
	for _, q := range []float64{0.25, 0.5, 0.75, 0.95, 0.99} {
		want := xs[int(math.Ceil(q*p))-1]
		rel := math.Abs(h.Quantile(q)-want) / want
		if rel > 1.0/64 {
			t.Errorf("p%g = %g, exact %g: relative error %.4f > 1/64", 100*q, h.Quantile(q), want, rel)
		}
		worst = math.Max(worst, rel)
	}
	t.Logf("P=%d: max relative quantile error %.5f (bound %.5f)", p, worst, 1.0/64)
}
