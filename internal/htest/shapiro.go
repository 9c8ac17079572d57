// Package htest implements the hypothesis tests the paper prescribes for
// analyzing and comparing nondeterministic performance measurements:
// the Shapiro–Wilk normality test (Rule 6), Student and Welch t-tests and
// one-way ANOVA for comparing means (§3.2.1), the Kruskal–Wallis rank test
// for comparing medians (§3.2.2), and the effect-size measure the paper
// recommends over bare p-values.
package htest

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/stats"
)

// Errors returned by the tests.
var (
	ErrSampleSize = errors.New("htest: sample size out of supported range")
	ErrConstant   = errors.New("htest: sample is constant")
	ErrGroups     = errors.New("htest: need at least two groups with two observations each")
	// ErrNonFinite reports a NaN observation given to a rank test: NaN
	// is unordered, so it has no rank.
	ErrNonFinite = errors.New("htest: NaN observation has no rank")
)

// TestResult carries a test statistic and its p-value, along with the
// name of the statistic for reporting.
type TestResult struct {
	Name string  // e.g. "W", "F", "H", "t"
	Stat float64 // the test statistic
	P    float64 // p-value under the null hypothesis
}

// Significant reports whether the null hypothesis is rejected at level
// alpha (e.g. 0.05).
func (r TestResult) Significant(alpha float64) bool { return r.P < alpha }

// String renders the result.
func (r TestResult) String() string {
	return fmt.Sprintf("%s = %.6g, p = %.4g", r.Name, r.Stat, r.P)
}

// ShapiroWilk performs the Shapiro–Wilk test of composite normality
// following Royston's AS R94 algorithm (the approximation R's
// shapiro.test uses). Supported sample sizes are 3 <= n <= 5000; the
// paper cites Razali & Wah's finding that Shapiro–Wilk is the most
// powerful of the common normality tests but warns that, like all of
// them, it becomes oversensitive for very large samples — pair it with a
// Q-Q inspection (Rule 6).
func ShapiroWilk(xs []float64) (TestResult, error) {
	n := len(xs)
	if n < 3 || n > 5000 {
		return TestResult{}, ErrSampleSize
	}
	return ShapiroWilkSorted(stats.Sorted(xs))
}

// ShapiroWilkSorted is ShapiroWilk for an already-sorted sample (e.g. a
// stats.Sample's cached view), skipping the re-sort. The slice is only
// read.
func ShapiroWilkSorted(x []float64) (TestResult, error) {
	n := len(x)
	if n < 3 || n > 5000 {
		return TestResult{}, ErrSampleSize
	}
	if x[0] == x[n-1] {
		return TestResult{}, ErrConstant
	}

	// Expected values of normal order statistics (Blom approximation)
	// and their normalization.
	m := make([]float64, n)
	var ssm float64
	for i := 0; i < n; i++ {
		m[i] = dist.NormalQuantile((float64(i+1) - 0.375) / (float64(n) + 0.25))
		ssm += m[i] * m[i]
	}

	a := make([]float64, n)
	u := 1 / math.Sqrt(float64(n))
	rsqrt := math.Sqrt(ssm)
	if n == 3 {
		// Exact weights for the smallest case (as in R's swilk.c).
		a[0] = -math.Sqrt(0.5)
		a[2] = math.Sqrt(0.5)
	} else if n > 5 {
		an := -2.706056*ipow(u, 5) + 4.434685*ipow(u, 4) - 2.071190*ipow(u, 3) -
			0.147981*u*u + 0.221157*u + m[n-1]/rsqrt
		an1 := -3.582633*ipow(u, 5) + 5.682633*ipow(u, 4) - 1.752461*ipow(u, 3) -
			0.293762*u*u + 0.042981*u + m[n-2]/rsqrt
		phi := (ssm - 2*m[n-1]*m[n-1] - 2*m[n-2]*m[n-2]) /
			(1 - 2*an*an - 2*an1*an1)
		sp := math.Sqrt(phi)
		for i := 2; i < n-2; i++ {
			a[i] = m[i] / sp
		}
		a[n-1] = an
		a[n-2] = an1
		a[0] = -an
		a[1] = -an1
	} else {
		an := -2.706056*ipow(u, 5) + 4.434685*ipow(u, 4) - 2.071190*ipow(u, 3) -
			0.147981*u*u + 0.221157*u + m[n-1]/rsqrt
		phi := (ssm - 2*m[n-1]*m[n-1]) / (1 - 2*an*an)
		sp := math.Sqrt(phi)
		for i := 1; i < n-1; i++ {
			a[i] = m[i] / sp
		}
		a[n-1] = an
		a[0] = -an
	}

	mean := stats.Mean(x)
	var num, den float64
	for i := 0; i < n; i++ {
		num += a[i] * x[i]
		d := x[i] - mean
		den += d * d
	}
	w := num * num / den
	if w > 1 {
		w = 1 // guard against rounding slightly above 1
	}

	p := shapiroWilkP(w, n)
	return TestResult{Name: "W", Stat: w, P: p}, nil
}

// shapiroWilkP converts the W statistic into a p-value using Royston's
// normalizing transformations.
func shapiroWilkP(w float64, n int) float64 {
	nf := float64(n)
	switch {
	case n == 3:
		const stqr = math.Pi / 3 // asin(sqrt(3/4))
		p := 6 / math.Pi * (math.Asin(math.Sqrt(w)) - stqr)
		if p < 0 {
			return 0
		}
		if p > 1 {
			return 1
		}
		return p
	case n <= 11:
		gamma := -2.273 + 0.459*nf
		y := -math.Log(gamma - math.Log1p(-w))
		mu := 0.5440 - 0.39978*nf + 0.025054*nf*nf - 0.0006714*nf*nf*nf
		sigma := math.Exp(1.3822 - 0.77857*nf + 0.062767*nf*nf - 0.0020322*nf*nf*nf)
		z := (y - mu) / sigma
		return 1 - dist.NormalCDF(z)
	default:
		y := math.Log1p(-w)
		lnN := math.Log(nf)
		mu := -1.5861 - 0.31082*lnN - 0.083751*lnN*lnN + 0.0038915*lnN*lnN*lnN
		sigma := math.Exp(-0.4803 - 0.082676*lnN + 0.0030302*lnN*lnN)
		z := (y - mu) / sigma
		return 1 - dist.NormalCDF(z)
	}
}

func ipow(x float64, k int) float64 {
	r := 1.0
	for i := 0; i < k; i++ {
		r *= x
	}
	return r
}

// IsPlausiblyNormal is the convenience predicate behind Rule 6: it runs
// Shapiro–Wilk at the given alpha and additionally requires a straight
// Q-Q relation (correlation above 0.95) so that huge samples are not
// rejected on trivial deviations. Errors (tiny or constant samples)
// report false.
func IsPlausiblyNormal(xs []float64, alpha float64) bool {
	if len(xs) < 3 || len(xs) > 5000 {
		return false
	}
	return IsPlausiblyNormalSorted(stats.Sorted(xs), alpha)
}

// IsPlausiblyNormalSorted is IsPlausiblyNormal over an already-sorted
// sample, sharing the one sorted view between the Shapiro–Wilk test and
// the Q-Q fallback.
func IsPlausiblyNormalSorted(sorted []float64, alpha float64) bool {
	res, err := ShapiroWilkSorted(sorted)
	if err != nil {
		return false
	}
	if res.P >= alpha {
		return true
	}
	// Large samples: fall back to the Q-Q straightness diagnostic the
	// paper recommends pairing with the test.
	return len(sorted) > 1000 && stats.QQCorrelationSorted(sorted) > 0.999
}
