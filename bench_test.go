// Benchmarks regenerating every table and figure of the paper (one
// benchmark per artifact; see DESIGN.md's per-experiment index). Each
// iteration regenerates the full artifact at a bench-friendly scale;
// cmd/figures runs the paper-scale versions. Additional micro-benchmarks
// cover the statistical kernels the library is built from.
//
// Run with: go test -bench=. -benchmem
package scibench_test

import (
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"testing"
	"time"

	scibench "repro"
	"repro/internal/bootstrap"
	"repro/internal/figures"
	"repro/internal/stats"
)

// BenchmarkTable1Survey regenerates Table 1 (synthetic dataset with the
// exact published marginals + aggregation).
func BenchmarkTable1Survey(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := figures.Table1(io.Discard, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMeansExample regenerates the §3.1.1 worked example.
func BenchmarkMeansExample(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := figures.MeansExample(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1HPL regenerates Figure 1 (50 HPL runs on the simulated
// 64-node system, scaled N).
func BenchmarkFig1HPL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := figures.Fig1(io.Discard, 50, 16384, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2Normalization regenerates Figure 2 (ping-pong samples,
// log and CLT-block normalization, Q-Q + Shapiro–Wilk diagnostics).
func BenchmarkFig2Normalization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := figures.Fig2(io.Discard, 100000, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3Significance regenerates Figure 3 (two systems' latency
// distributions, CIs of mean and median, Kruskal–Wallis).
func BenchmarkFig3Significance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := figures.Fig3(io.Discard, 100000, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4QuantileRegression regenerates Figure 4 (per-quantile
// system comparison with confidence bands).
func BenchmarkFig4QuantileRegression(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := figures.Fig4(io.Discard, 100000, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5Reduce regenerates Figure 5 (reduction times for process
// counts 2..64, powers-of-two effect).
func BenchmarkFig5Reduce(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := figures.Fig5(io.Discard, 100, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6PerProcess regenerates Figure 6 (per-process reduction
// variation with the ANOVA pooling gate).
func BenchmarkFig6PerProcess(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := figures.Fig6(io.Discard, 100, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7Scaling regenerates Figure 7a/b (Pi scaling against the
// three bounds models).
func BenchmarkFig7Scaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := figures.Fig7ab(io.Discard, 5, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7cPlots regenerates Figure 7c (box/violin statistics of a
// large latency sample).
func BenchmarkFig7cPlots(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := figures.Fig7c(io.Discard, 100000, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks of the statistical kernels -----------------------

func randomSample(n int, seed uint64) []float64 {
	rng := rand.New(rand.NewPCG(seed, 1))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 50
	}
	return xs
}

// BenchmarkSummarize measures the descriptive-summary bundle on 10k
// observations.
func BenchmarkSummarize(b *testing.B) {
	xs := randomSample(10000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = scibench.Summarize(xs)
	}
}

// BenchmarkMedianCI measures the nonparametric median CI on 10k
// observations (dominated by the sort).
func BenchmarkMedianCI(b *testing.B) {
	xs := randomSample(10000, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scibench.MedianCI(xs, 0.95); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShapiroWilk measures the normality test at its maximum
// supported sample size.
func BenchmarkShapiroWilk(b *testing.B) {
	xs := randomSample(5000, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scibench.ShapiroWilk(xs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKruskalWallis measures the rank test on two 10k samples.
func BenchmarkKruskalWallis(b *testing.B) {
	xs := randomSample(10000, 4)
	ys := randomSample(10000, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scibench.KruskalWallis(xs, ys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuantileRegression measures the exact LP fit on 200
// observations with two regressors.
func BenchmarkQuantileRegression(b *testing.B) {
	rng := rand.New(rand.NewPCG(6, 6))
	n := 200
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		xi := rng.Float64() * 10
		x[i] = []float64{1, xi}
		y[i] = 2 + 0.5*xi + rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scibench.QuantileRegress(x, y, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdaptiveRun measures a full adaptive measurement campaign
// against a synthetic noisy workload.
func BenchmarkAdaptiveRun(b *testing.B) {
	rng := rand.New(rand.NewPCG(7, 7))
	for i := 0; i < b.N; i++ {
		_, err := scibench.Run(scibench.Plan{
			MinSamples: 20, MaxSamples: 500, RelErr: 0.05,
		}, func() float64 { return 10 + rng.NormFloat64() })
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterReduce measures one simulated 64-rank reduction.
func BenchmarkClusterReduce(b *testing.B) {
	m, err := scibench.NewCluster(scibench.PizDaint(), 64, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Reduce(8, nil)
	}
}

// --- Collective scaling benchmarks (million-rank engine) ---------------

// benchCollective sweeps one collective across three orders of magnitude
// of rank count. Auto result mode means P=1k materializes exact per-rank
// times while P=64k and P=1M return fixed-size summaries — B/op must be
// flat across the two summary sizes (the engine's allocation-flat
// contract, pinned by TestSummaryAllocsFlat and gated by benchgate).
func benchCollective(b *testing.B, run func(*scibench.Cluster) scibench.Collective) {
	for _, p := range []int{1 << 10, 1 << 16, 1 << 20} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			cfg := scibench.PizDaint()
			// The preset's 42k cores cap P; scale the node count while
			// keeping the per-node noise character.
			cfg.Nodes = 1 << 17
			m, err := scibench.NewCluster(cfg, p, 1)
			if err != nil {
				b.Fatal(err)
			}
			run(m) // warm the machine's scratch-buffer pool
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = run(m)
			}
		})
	}
}

func BenchmarkCollectiveReduce(b *testing.B) {
	benchCollective(b, func(m *scibench.Cluster) scibench.Collective { return m.Reduce(8, nil) })
}

func BenchmarkCollectiveBcast(b *testing.B) {
	benchCollective(b, func(m *scibench.Cluster) scibench.Collective { return m.Bcast(8, nil) })
}

func BenchmarkCollectiveBarrier(b *testing.B) {
	benchCollective(b, func(m *scibench.Cluster) scibench.Collective { return m.Barrier(nil) })
}

func BenchmarkCollectiveAllreduce(b *testing.B) {
	benchCollective(b, func(m *scibench.Cluster) scibench.Collective { return m.Allreduce(8, nil) })
}

// --- Ablation benchmarks (design choices called out in DESIGN.md) ------

// BenchmarkAblationSync compares the two clock-synchronization schemes
// of §4.2.1: the recommended delay-window scheme vs the naive
// agree-on-a-wall-clock-time approach. The reported custom metric is the
// residual start skew in nanoseconds — the accuracy each scheme buys.
func BenchmarkAblationSync(b *testing.B) {
	for _, scheme := range []string{"delay-window", "naive-clocks", "barrier"} {
		b.Run(scheme, func(b *testing.B) {
			var totalSkew float64
			for i := 0; i < b.N; i++ {
				// A fresh machine per iteration: reusing one lets clock
				// drift accumulate over simulated time, making the naive
				// scheme's skew grow without bound (true, but a different
				// metric than per-sync accuracy).
				m, err := scibench.NewCluster(scibench.PizDora(), 16, 42)
				if err != nil {
					b.Fatal(err)
				}
				switch scheme {
				case "delay-window":
					totalSkew += float64(m.DelayWindowSync(time.Millisecond, 5).MaxSkew)
				case "naive-clocks":
					totalSkew += float64(m.NaiveClockSync(time.Millisecond).MaxSkew)
				case "barrier":
					totalSkew += float64(m.BarrierSync().MaxSkew)
				}
			}
			b.ReportMetric(totalSkew/float64(b.N), "skew-ns")
		})
	}
}

// BenchmarkAblationOutlierPolicy compares summary bias under the three
// outlier policies on identical heavy-tailed data: keep-all vs Tukey
// k=1.5 vs Tukey k=3. The custom metric is the resulting mean estimate
// (×1000), showing how aggressively each policy shifts it.
func BenchmarkAblationOutlierPolicy(b *testing.B) {
	policies := map[string]scibench.OutlierPolicy{
		"keep-all":  {},
		"tukey-1.5": {Remove: true, TukeyK: 1.5},
		"tukey-3.0": {Remove: true, TukeyK: 3},
	}
	for name, pol := range policies {
		b.Run(name, func(b *testing.B) {
			var meanSum float64
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewPCG(uint64(i), 9))
				res, err := scibench.Run(scibench.Plan{
					MinSamples: 200,
					Outliers:   pol,
				}, func() float64 {
					v := 1 + 0.1*rng.NormFloat64()
					if rng.Float64() < 0.02 {
						v += 5 // rare interference spike
					}
					return v
				})
				if err != nil {
					b.Fatal(err)
				}
				meanSum += res.Summary.Mean
			}
			b.ReportMetric(1000*meanSum/float64(b.N), "mean-x1000")
		})
	}
}

// BenchmarkAblationStoppingRule compares fixed-30-samples against the
// adaptive CI-width rule on the same skewed workload. Custom metrics:
// samples spent and achieved relative CI width (×1000) — the tradeoff
// §4.2.2 is about.
func BenchmarkAblationStoppingRule(b *testing.B) {
	plans := map[string]scibench.Plan{
		"fixed-30":    {MinSamples: 30},
		"adaptive-5%": {MinSamples: 10, MaxSamples: 3000, RelErr: 0.05},
		"adaptive-2%": {MinSamples: 10, MaxSamples: 3000, RelErr: 0.02},
	}
	for name, plan := range plans {
		b.Run(name, func(b *testing.B) {
			var samples, width float64
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewPCG(uint64(i), 5))
				res, err := scibench.Run(plan, func() float64 {
					return math.Exp(0.4 * rng.NormFloat64())
				})
				if err != nil {
					b.Fatal(err)
				}
				samples += float64(res.Summary.N)
				width += res.MedianCI.RelativeWidth()
			}
			b.ReportMetric(samples/float64(b.N), "samples")
			b.ReportMetric(1000*width/float64(b.N), "relwidth-x1000")
		})
	}
}

// BenchmarkAblationBlockNormalization quantifies the Fig 2 tradeoff:
// larger CLT blocks buy normality (Q-Q straightness ×1000 reported) at
// the cost of resolution.
func BenchmarkAblationBlockNormalization(b *testing.B) {
	m, err := scibench.NewCluster(scibench.PizDora(), 25, 7)
	if err != nil {
		b.Fatal(err)
	}
	raw := m.PingPong(0, 24, 64, 50000)
	xs := make([]float64, len(raw))
	for i, d := range raw {
		xs[i] = float64(d)
	}
	for _, k := range []int{1, 10, 100, 1000} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var corr float64
			for i := 0; i < b.N; i++ {
				res, err := scibench.Analyze(blockMeans(xs, k), 0.95)
				if err != nil {
					b.Fatal(err)
				}
				corr += res.ShapiroW
			}
			b.ReportMetric(1000*corr/float64(b.N), "shapiroW-x1000")
		})
	}
}

func blockMeans(xs []float64, k int) []float64 {
	n := len(xs) / k
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := 0.0
		for j := i * k; j < (i+1)*k; j++ {
			sum += xs[j]
		}
		out[i] = sum / float64(k)
	}
	return out
}

// --- Harness benchmarks (parallel execution engine + stats fast path) --

// BenchmarkSuiteRun measures a small collective sweep end to end, serial
// vs all cores; the report is bit-identical either way, so the delta is
// pure harness speedup.
func BenchmarkSuiteRun(b *testing.B) {
	for _, workers := range []int{1, 0} {
		name := "j=1"
		if workers == 0 {
			name = "j=max"
		}
		b.Run(name, func(b *testing.B) {
			cfg := scibench.SuiteConfig{
				Cluster:     scibench.PizDaint(),
				Collectives: []string{"reduce", "bcast", "allreduce"},
				Ranks:       []int{2, 4, 8, 16},
				Bytes:       []int{8},
				MinRuns:     20,
				MaxRuns:     80,
				RelErr:      0.05,
				Seed:        1,
				Workers:     workers,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := scibench.RunSuite(cfg, io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBootstrapCI measures a BCa bootstrap of the median, serial vs
// all cores (identical intervals by construction).
func BenchmarkBootstrapCI(b *testing.B) {
	xs := randomSample(200, 8)
	for _, workers := range []int{1, 0} {
		name := "j=1"
		if workers == 0 {
			name = "j=max"
		}
		b.Run(name, func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewPCG(1, 2))
				if _, err := bootstrap.CIWorkers(xs, stats.Median, bootstrap.BCa,
					1000, 0.95, rng, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAnalyze measures the full one-sample analysis (summary, CIs,
// change-point scan, normality diagnostics) on 5k observations — the
// path that previously sorted the sample 4–6 times and now sorts once.
func BenchmarkAnalyze(b *testing.B) {
	xs := randomSample(5000, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scibench.Analyze(xs, 0.95); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSampleReset measures the allocation-lean loop path: one
// Sample reused across many summaries (0 allocs/op after warmup).
func BenchmarkSampleReset(b *testing.B) {
	xs := randomSample(10000, 10)
	s := scibench.NewSample(xs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reset(xs)
		_ = s.Summarize()
	}
}
