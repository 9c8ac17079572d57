// Package stats implements the descriptive statistics and summarization
// techniques prescribed by Hoefler & Belli (SC'15) for reporting parallel
// performance results: the correct means for costs, rates, and ratios
// (Rules 3–4), robust rank statistics (median, quantiles, IQR), spread
// measures (sample standard deviation, coefficient of variation), online
// (Welford) accumulation, Tukey outlier detection, log- and CLT-block
// normalization, and density estimation for plotting.
package stats

import (
	"errors"
	"math"
	"slices"
	"sort"
)

// ErrEmpty is returned when a statistic is requested on an empty sample.
var ErrEmpty = errors.New("stats: empty sample")

// ErrNonPositive is returned by summaries that are only defined for
// strictly positive observations (geometric and harmonic means).
var ErrNonPositive = errors.New("stats: sample contains non-positive values")

// Mean returns the arithmetic mean of xs. Per Rule 3 it is the correct
// summary for costs (times, energy, flop counts), where the total is the
// quantity of interest. It returns NaN for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// HarmonicMean returns the harmonic mean of xs. Per Rule 3 it is the
// correct summary for rates (e.g. flop/s) when the denominator carries the
// primary semantic meaning. All values must be strictly positive.
func HarmonicMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return math.NaN(), ErrEmpty
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return math.NaN(), ErrNonPositive
		}
		sum += 1 / x
	}
	return float64(len(xs)) / sum, nil
}

// GeometricMean returns the geometric mean of xs, computed in log space
// for numerical stability. Per Rule 4 it should only be used for ratios
// when the underlying costs or rates are unavailable. All values must be
// strictly positive.
func GeometricMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return math.NaN(), ErrEmpty
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return math.NaN(), ErrNonPositive
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}

// Variance returns the unbiased sample variance (n-1 denominator) of xs,
// or NaN when fewer than two observations are given.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1)
}

// StdDev returns the sample standard deviation, the square root of the
// unbiased sample variance (paper §3.1.2).
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// CoV returns the coefficient of variation s/x̄, the dimensionless
// stability measure recommended for long-term system consistency studies
// (paper §3.1.2, refs [34, 52]).
func CoV(xs []float64) float64 {
	return StdDev(xs) / Mean(xs)
}

// Min returns the smallest value in xs (NaN for an empty sample).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest value in xs (NaN for an empty sample).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Sorted returns a sorted copy of xs, leaving the input untouched.
func Sorted(xs []float64) []float64 {
	s := make([]float64, len(xs))
	copy(s, xs)
	sortFloat64s(s)
	return s
}

// sortFloat64s sorts ascending in place with sort.Float64s's NaN-first
// contract, taking the faster generic sort when no NaN is present (the
// common case for measurement data; the scan is O(n) against the sort's
// O(n log n)).
func sortFloat64s(xs []float64) {
	for _, x := range xs {
		if math.IsNaN(x) {
			sort.Float64s(xs)
			return
		}
	}
	slices.Sort(xs)
}

// Quantile returns the p-quantile (0 <= p <= 1) of the *sorted* slice
// using the type-7 (linear interpolation) definition that R and NumPy
// default to. The caller is responsible for sorting; use QuantileOf for
// unsorted data.
func Quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	switch {
	case n == 0 || math.IsNaN(p) || p < 0 || p > 1:
		return math.NaN()
	case n == 1:
		return sorted[0]
	}
	h := p * float64(n-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= n {
		return sorted[n-1]
	}
	frac := h - float64(lo)
	return sorted[lo] + frac*(sorted[hi]-sorted[lo])
}

// QuantileOf sorts a copy of xs and returns its p-quantile.
func QuantileOf(xs []float64, p float64) float64 {
	return Quantile(Sorted(xs), p)
}

// Median returns the 50th percentile of xs (paper §3.1.3).
func Median(xs []float64) float64 {
	return QuantileOf(xs, 0.5)
}

// IQR returns the interquartile range x(75%) − x(25%) of xs.
func IQR(xs []float64) float64 {
	s := Sorted(xs)
	return Quantile(s, 0.75) - Quantile(s, 0.25)
}

// Skewness returns the adjusted Fisher–Pearson sample skewness of xs
// (g1 with the small-sample correction), NaN for n < 3.
func Skewness(xs []float64) float64 {
	return skewnessAbout(xs, Mean(xs))
}

// skewnessAbout is the one shared skewness body: the slice path above
// and the cached-mean Sample path both route through it, so the two
// implementations cannot drift.
func skewnessAbout(xs []float64, m float64) float64 {
	n := float64(len(xs))
	if n < 3 {
		return math.NaN()
	}
	var m2, m3 float64
	for _, x := range xs {
		d := x - m
		m2 += d * d
		m3 += d * d * d
	}
	m2 /= n
	m3 /= n
	g1 := m3 / math.Pow(m2, 1.5)
	return g1 * math.Sqrt(n*(n-1)) / (n - 2)
}

// Welford accumulates mean and variance online in a single pass using
// Welford's numerically stable recurrence — the incremental scheme the
// paper describes for computing the sample deviation without storing all
// observations (§3.1.2). The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// N returns the number of observations added so far.
func (w *Welford) N() int { return w.n }

// Mean returns the running arithmetic mean (NaN before any Add).
func (w *Welford) Mean() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.mean
}

// Variance returns the running unbiased sample variance (NaN for n < 2).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return math.NaN()
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the running sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// CoV returns the running coefficient of variation.
func (w *Welford) CoV() float64 { return w.StdDev() / w.Mean() }

// Min returns the smallest observation seen (NaN before any Add).
func (w *Welford) Min() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.min
}

// Max returns the largest observation seen (NaN before any Add).
func (w *Welford) Max() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.max
}

// Merge combines another accumulator into w (parallel reduction of
// partial statistics, Chan et al. update).
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n1, n2 := float64(w.n), float64(o.n)
	delta := o.mean - w.mean
	total := n1 + n2
	w.mean += delta * n2 / total
	w.m2 += o.m2 + delta*delta*n1*n2/total
	w.n += o.n
	if o.min < w.min {
		w.min = o.min
	}
	if o.max > w.max {
		w.max = o.max
	}
}
