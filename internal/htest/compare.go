package htest

import (
	"math"

	"repro/internal/dist"
	"repro/internal/stats"
)

// TTest performs a two-sample t-test of the null hypothesis that both
// samples share the same mean. With welch=true (recommended), the Welch
// variant with the Welch–Satterthwaite degrees of freedom is used and
// equal variances are not assumed; otherwise the classic pooled-variance
// Student test is performed. The returned p-value is two-sided.
func TTest(xs, ys []float64, welch bool) (TestResult, error) {
	nx, ny := len(xs), len(ys)
	if nx < 2 || ny < 2 {
		return TestResult{}, ErrSampleSize
	}
	mx, my := stats.Mean(xs), stats.Mean(ys)
	vx, vy := stats.Variance(xs), stats.Variance(ys)
	if vx == 0 && vy == 0 {
		return TestResult{}, ErrConstant
	}
	fx, fy := float64(nx), float64(ny)

	var tstat, df float64
	if welch {
		se2 := vx/fx + vy/fy
		tstat = (mx - my) / math.Sqrt(se2)
		df = se2 * se2 / (vx*vx/(fx*fx*(fx-1)) + vy*vy/(fy*fy*(fy-1)))
	} else {
		sp2 := ((fx-1)*vx + (fy-1)*vy) / (fx + fy - 2)
		tstat = (mx - my) / math.Sqrt(sp2*(1/fx+1/fy))
		df = fx + fy - 2
	}
	td := dist.StudentT{Nu: df}
	p := 2 * td.CDF(-math.Abs(tstat))
	return TestResult{Name: "t", Stat: tstat, P: p}, nil
}

// ANOVAResult extends TestResult with the variance decomposition the
// paper spells out in §3.2.1: egv is the inter-group (explained)
// variability and igv the intra-group (residual) variability.
type ANOVAResult struct {
	TestResult
	EGV     float64 // between-group mean square
	IGV     float64 // within-group mean square
	DFB     int     // between-group degrees of freedom (k−1)
	DFW     int     // within-group degrees of freedom (N−k)
	FCrit05 float64 // critical F at alpha = 0.05
}

// OneWayANOVA tests whether k groups of measurements share a common mean
// (null hypothesis: all means equal), per §3.2.1. It requires iid
// near-normal data with similar spreads; groups may have different sizes.
func OneWayANOVA(groups ...[]float64) (ANOVAResult, error) {
	k := len(groups)
	if k < 2 {
		return ANOVAResult{}, ErrGroups
	}
	totalN := 0
	for _, g := range groups {
		if len(g) < 2 {
			return ANOVAResult{}, ErrGroups
		}
		totalN += len(g)
	}
	// Grand mean.
	var grand float64
	for _, g := range groups {
		for _, v := range g {
			grand += v
		}
	}
	grand /= float64(totalN)

	var ssb, ssw float64
	for _, g := range groups {
		gm := stats.Mean(g)
		d := gm - grand
		ssb += float64(len(g)) * d * d
		for _, v := range g {
			e := v - gm
			ssw += e * e
		}
	}
	dfb := k - 1
	dfw := totalN - k
	egv := ssb / float64(dfb)
	igv := ssw / float64(dfw)
	if igv == 0 {
		return ANOVAResult{}, ErrConstant
	}
	f := egv / igv
	fd := dist.FisherF{D1: float64(dfb), D2: float64(dfw)}
	p := 1 - fd.CDF(f)
	return ANOVAResult{
		TestResult: TestResult{Name: "F", Stat: f, P: p},
		EGV:        egv,
		IGV:        igv,
		DFB:        dfb,
		DFW:        dfw,
		FCrit05:    fd.Quantile(0.95),
	}, nil
}

// KruskalWallis performs the nonparametric Kruskal–Wallis one-way
// analysis of variance by ranks (§3.2.2): the null hypothesis is that all
// groups share the same median. The statistic is corrected for ties, and
// the p-value uses the χ²(k−1) large-sample approximation (the paper
// notes exact tables exist for n < 5 per group; the χ² approximation is
// what practical tools use). A NaN observation fails with ErrNonFinite.
func KruskalWallis(groups ...[]float64) (TestResult, error) {
	k := len(groups)
	if k < 2 {
		return TestResult{}, ErrGroups
	}
	var all []float64
	for _, g := range groups {
		if len(g) < 2 {
			return TestResult{}, ErrGroups
		}
		all = append(all, g...)
	}
	ranks, tieCorrection, err := midRanks(all)
	if err != nil {
		return TestResult{}, err
	}

	nf := float64(len(all))
	h := 0.0
	for _, g := range groups {
		rankSum := 0.0
		for _, r := range ranks[:len(g)] {
			rankSum += r
		}
		ranks = ranks[len(g):]
		h += rankSum * rankSum / float64(len(g))
	}
	h = 12/(nf*(nf+1))*h - 3*(nf+1)

	// Ties correction.
	denom := 1 - tieCorrection/(nf*nf*nf-nf)
	if denom <= 0 {
		return TestResult{}, ErrConstant
	}
	h /= denom

	chi := dist.ChiSquared{K: float64(k - 1)}
	p := 1 - chi.CDF(h)
	return TestResult{Name: "H", Stat: h, P: p}, nil
}

// EffectSize returns the standardized difference between the means of two
// experiments relative to the pooled within-group variability,
// E = (x̄_i − x̄_j)/√igv — the measure the paper recommends (after
// refs [29, 37, 55]) because significance tests alone can mislead for
// small effects. The magnitude follows Cohen's conventional bands:
// |E| ≈ 0.2 small, 0.5 medium, 0.8 large.
func EffectSize(xs, ys []float64) (float64, error) {
	if len(xs) < 2 || len(ys) < 2 {
		return math.NaN(), ErrSampleSize
	}
	res, err := OneWayANOVA(xs, ys)
	if err != nil {
		return math.NaN(), err
	}
	return (stats.Mean(xs) - stats.Mean(ys)) / math.Sqrt(res.IGV), nil
}

// CompareMedians is the §3.2 decision helper for two samples: it runs
// Kruskal–Wallis on the pair and reports whether the medians differ
// significantly at level alpha.
func CompareMedians(xs, ys []float64, alpha float64) (bool, TestResult, error) {
	res, err := KruskalWallis(xs, ys)
	if err != nil {
		return false, res, err
	}
	return res.Significant(alpha), res, nil
}

// MeanDifferenceCI returns the Welch confidence interval for
// mean(ys) − mean(xs): the two-sample analogue of a mean CI, non-
// overlap with zero being the §3.2 significance criterion.
func MeanDifferenceCI(xs, ys []float64, confidence float64) (lo, hi float64, err error) {
	if len(xs) < 2 || len(ys) < 2 {
		return 0, 0, ErrSampleSize
	}
	if confidence <= 0 || confidence >= 1 {
		confidence = 0.95
	}
	vx, vy := stats.Variance(xs), stats.Variance(ys)
	fx, fy := float64(len(xs)), float64(len(ys))
	se2 := vx/fx + vy/fy
	if se2 == 0 {
		return 0, 0, ErrConstant
	}
	df := se2 * se2 / (vx*vx/(fx*fx*(fx-1)) + vy*vy/(fy*fy*(fy-1)))
	tcrit := dist.StudentT{Nu: df}.Quantile(1 - (1-confidence)/2)
	diff := stats.Mean(ys) - stats.Mean(xs)
	half := tcrit * math.Sqrt(se2)
	return diff - half, diff + half, nil
}
