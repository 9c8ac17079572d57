package htest

import (
	"math"

	"repro/internal/dist"
)

// MannWhitneyResult extends TestResult with the U statistics and the
// rank-biserial correlation, the effect size that belongs to a rank
// test (Cohen-style standardized mean differences assume the means are
// the quantity of interest, which §3.1.3 argues against for skewed
// measurement data).
type MannWhitneyResult struct {
	TestResult
	U1, U2 float64 // U for the first and second sample (U1 + U2 = n1·n2)
	// RankBiserial is r = 2·U1/(n1·n2) − 1 ∈ [−1, 1]: the difference
	// between the probability that a random x exceeds a random y and
	// the converse. 0 means stochastic equality; +1 complete
	// superiority of xs; −1 of ys.
	RankBiserial float64
}

// MannWhitney performs the two-sample Mann–Whitney (Wilcoxon rank-sum)
// test of the null hypothesis that both samples come from the same
// distribution — the two-group specialization of the Kruskal–Wallis
// test §3.2.2 recommends when normality cannot be assumed. Ties are
// handled with mid-ranks and the tie-corrected variance; the two-sided
// p-value uses the continuity-corrected normal approximation (the
// regime practical tools use; exact tables only matter below n ≈ 8).
//
// Both samples being entirely one tied value yields p = 1 (no
// evidence) rather than an error, so constant-but-equal measurement
// streams compare as indistinguishable. A NaN observation fails with
// ErrNonFinite.
func MannWhitney(xs, ys []float64) (MannWhitneyResult, error) {
	n1, n2 := len(xs), len(ys)
	if n1 < 2 || n2 < 2 {
		return MannWhitneyResult{}, ErrSampleSize
	}
	all := append(append(make([]float64, 0, n1+n2), xs...), ys...)
	ranks, tieCorrection, err := midRanks(all)
	if err != nil {
		return MannWhitneyResult{}, err
	}
	rankSum1 := 0.0
	for _, r := range ranks[:n1] {
		rankSum1 += r
	}

	f1, f2 := float64(n1), float64(n2)
	nf := float64(n1 + n2)
	u1 := rankSum1 - f1*(f1+1)/2
	u2 := f1*f2 - u1
	res := MannWhitneyResult{
		U1:           u1,
		U2:           u2,
		RankBiserial: 2*u1/(f1*f2) - 1,
	}

	mean := f1 * f2 / 2
	variance := f1 * f2 / 12 * (nf + 1 - tieCorrection/(nf*(nf-1)))
	if variance <= 0 {
		// Every observation is the same tied value: the samples are
		// indistinguishable by rank.
		res.TestResult = TestResult{Name: "U", Stat: u1, P: 1}
		return res, nil
	}
	// Continuity correction: shrink |U − mean| by ½ before normalizing.
	d := u1 - mean
	switch {
	case d > 0.5:
		d -= 0.5
	case d < -0.5:
		d += 0.5
	default:
		d = 0
	}
	z := d / math.Sqrt(variance)
	p := 2 * dist.NormalCDF(-math.Abs(z))
	if p > 1 {
		p = 1
	}
	res.TestResult = TestResult{Name: "U", Stat: u1, P: p}
	return res, nil
}
