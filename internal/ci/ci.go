// Package ci implements the confidence-interval machinery of Hoefler &
// Belli (SC'15): parametric Student-t intervals around the mean
// (paper §3.1.2), nonparametric rank-based intervals around the median and
// arbitrary quantiles following Le Boudec (paper §3.1.3), and the
// sample-size planning rules of §4.2.2 (analytic for normal data, a
// sequential CI-width stopping rule otherwise).
package ci

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/stats"
)

// Interval is a two-sided confidence interval with its confidence level
// (e.g. 0.95) and the point estimate it brackets.
type Interval struct {
	Lo, Hi     float64
	Confidence float64
	Center     float64 // the point estimate (mean, median, quantile)
}

// Width returns Hi − Lo.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// RelativeWidth returns the half-width relative to the absolute center,
// the "error level" e of §4.2.2; NaN when the center is zero.
func (iv Interval) RelativeWidth() float64 {
	if iv.Center == 0 {
		return math.NaN()
	}
	return (iv.Hi - iv.Lo) / 2 / math.Abs(iv.Center)
}

// Contains reports whether x lies inside the interval (inclusive).
func (iv Interval) Contains(x float64) bool { return x >= iv.Lo && x <= iv.Hi }

// Overlaps reports whether two intervals share any point. Per §3.2,
// non-overlapping 1−α intervals imply a statistically significant
// difference at that level (the converse does not hold).
func (iv Interval) Overlaps(other Interval) bool {
	return iv.Lo <= other.Hi && other.Lo <= iv.Hi
}

// String renders the interval with its confidence level.
func (iv Interval) String() string {
	return fmt.Sprintf("%.6g [%.6g, %.6g] (%.0f%% CI)",
		iv.Center, iv.Lo, iv.Hi, iv.Confidence*100)
}

// Errors returned by the interval constructors.
var (
	ErrTooFewSamples = errors.New("ci: too few samples")
	ErrConfidence    = errors.New("ci: confidence level must be in (0, 1)")
)

// MeanCI returns the Student-t confidence interval for the mean of xs at
// the given confidence level (e.g. 0.99):
//
//	[x̄ − t(n−1, α/2)·s/√n,  x̄ + t(n−1, α/2)·s/√n]
//
// It assumes xs are independent samples of a (near) normal distribution;
// callers should verify normality first (Rule 6).
func MeanCI(xs []float64, confidence float64) (Interval, error) {
	if !(confidence > 0 && confidence < 1) {
		return Interval{}, ErrConfidence
	}
	n := len(xs)
	if n < 2 {
		return Interval{}, ErrTooFewSamples
	}
	return meanCIFromMoments(stats.Mean(xs), stats.StdDev(xs), n, confidence), nil
}

// MeanCISample is MeanCI over a pre-analyzed Sample, reusing its cached
// single-pass (Welford) moments instead of re-scanning the data. The
// Welford recurrence can differ from the two-pass mean/deviation in the
// last ulp; both are valid estimates of the same interval.
func MeanCISample(s *stats.Sample, confidence float64) (Interval, error) {
	if !(confidence > 0 && confidence < 1) {
		return Interval{}, ErrConfidence
	}
	if s.N() < 2 {
		return Interval{}, ErrTooFewSamples
	}
	return meanCIFromMoments(s.Mean(), s.StdDev(), s.N(), confidence), nil
}

func meanCIFromMoments(mean, sd float64, n int, confidence float64) Interval {
	alpha := 1 - confidence
	tcrit := dist.StudentT{Nu: float64(n - 1)}.Quantile(1 - alpha/2)
	half := tcrit * sd / math.Sqrt(float64(n))
	return Interval{
		Lo:         mean - half,
		Hi:         mean + half,
		Confidence: confidence,
		Center:     mean,
	}
}

// MedianCI returns the nonparametric rank-based confidence interval for
// the median (QuantileCI at p = 0.5).
func MedianCI(xs []float64, confidence float64) (Interval, error) {
	return QuantileCI(xs, 0.5, confidence)
}

// MedianCISample is MedianCI over a pre-analyzed Sample (QuantileCISample
// at p = 0.5).
func MedianCISample(s *stats.Sample, confidence float64) (Interval, error) {
	return QuantileCISample(s, 0.5, confidence)
}

// QuantileCI returns Le Boudec's distribution-free confidence interval
// for the p-quantile of xs. The interval spans the order statistics at
// ranks
//
//	⌊np − z(α/2)·√(np(1−p))⌋   and   ⌈np + z(α/2)·√(np(1−p))⌉ + 1
//
// (1-based), clamped to the sample. These intervals are conservative
// (possibly slightly wider than necessary) because only measured values
// can serve as bounds; they may be asymmetric for skewed data. At least
// six observations are required to bound the median nonparametrically
// (§4.2.2 notes n > 5).
func QuantileCI(xs []float64, p, confidence float64) (Interval, error) {
	if !(confidence > 0 && confidence < 1) {
		return Interval{}, ErrConfidence
	}
	if !(p > 0 && p < 1) {
		return Interval{}, fmt.Errorf("ci: quantile p=%g outside (0,1)", p)
	}
	if len(xs) < 6 {
		return Interval{}, ErrTooFewSamples
	}
	return quantileCISorted(stats.Sorted(xs), p, confidence), nil
}

// QuantileCISample is QuantileCI over a pre-analyzed Sample, reusing its
// cached sorted view instead of re-sorting. The interval is bit-identical
// to QuantileCI on the same data.
func QuantileCISample(s *stats.Sample, p, confidence float64) (Interval, error) {
	if !(confidence > 0 && confidence < 1) {
		return Interval{}, ErrConfidence
	}
	if !(p > 0 && p < 1) {
		return Interval{}, fmt.Errorf("ci: quantile p=%g outside (0,1)", p)
	}
	if s.N() < 6 {
		return Interval{}, ErrTooFewSamples
	}
	return quantileCISorted(s.Sorted(), p, confidence), nil
}

func quantileCISorted(s []float64, p, confidence float64) Interval {
	n := len(s)
	alpha := 1 - confidence
	z := dist.NormalQuantile(1 - alpha/2)
	nf := float64(n)
	sd := z * math.Sqrt(nf*p*(1-p))
	loRank := int(math.Floor(nf*p - sd)) // 1-based lower rank
	hiRank := int(math.Ceil(nf*p+sd)) + 1
	if loRank < 1 {
		loRank = 1
	}
	if hiRank > n {
		hiRank = n
	}
	return Interval{
		Lo:         s[loRank-1],
		Hi:         s[hiRank-1],
		Confidence: confidence,
		Center:     stats.Quantile(s, p),
	}
}

// QuantileCIHist is Le Boudec's distribution-free quantile interval
// computed from a log-bucketed histogram instead of a raw sample: the
// same rank arithmetic as QuantileCI, with ranks resolved through the
// histogram's cumulative counts. This is how tail percentiles (p99,
// p999) of service workloads get nonparametric CIs at millions of
// recorded requests without materializing an O(n) slice — the histogram
// is the summarized distribution Rule 5/6 asks us to model. Interval
// endpoints inherit the histogram's ≤1/64 bucket quantization on top of
// the usual order-statistic conservatism.
func QuantileCIHist(h *stats.LogHistogram, p, confidence float64) (Interval, error) {
	if !(confidence > 0 && confidence < 1) {
		return Interval{}, ErrConfidence
	}
	if !(p > 0 && p < 1) {
		return Interval{}, fmt.Errorf("ci: quantile p=%g outside (0,1)", p)
	}
	n := h.Count()
	if n < 6 {
		return Interval{}, ErrTooFewSamples
	}
	alpha := 1 - confidence
	z := dist.NormalQuantile(1 - alpha/2)
	nf := float64(n)
	sd := z * math.Sqrt(nf*p*(1-p))
	loRank := int64(math.Floor(nf*p - sd)) // 1-based lower rank
	hiRank := int64(math.Ceil(nf*p+sd)) + 1
	if loRank < 1 {
		loRank = 1
	}
	if hiRank > int64(n) {
		hiRank = int64(n)
	}
	return Interval{
		Lo:         h.ValueAtRank(uint64(loRank)),
		Hi:         h.ValueAtRank(uint64(hiRank)),
		Confidence: confidence,
		Center:     h.Quantile(p),
	}, nil
}

// RequiredSamples is the §4.2.2 sample-size planner: the number of
// measurements needed so the 1−α confidence interval stays within
// ±relErr of the estimate, judged from a pilot sample. It is the entry
// point callers (the public facade, to plan an experiment) should use;
// today it applies the normal-approximation rule of
// RequiredSamplesNormal, the paper's analytic planning formula.
func RequiredSamples(pilot []float64, confidence, relErr float64) (int, error) {
	return RequiredSamplesNormal(pilot, confidence, relErr)
}

// RequiredSamplesNormal returns the number of measurements needed so that
// the 1−α confidence interval of the mean lies within ±e·x̄, computed from
// a pilot sample as n = (s·t(n−1, α/2) / (e·x̄))² (§4.2.2). The result is
// never below the pilot size's minimum of 2.
func RequiredSamplesNormal(pilot []float64, confidence, relErr float64) (int, error) {
	if !(confidence > 0 && confidence < 1) {
		return 0, ErrConfidence
	}
	if !(relErr > 0) {
		return 0, fmt.Errorf("ci: relative error %g must be positive", relErr)
	}
	n := len(pilot)
	if n < 2 {
		return 0, ErrTooFewSamples
	}
	mean := stats.Mean(pilot)
	if mean == 0 {
		return 0, fmt.Errorf("ci: zero pilot mean, relative error undefined")
	}
	s := stats.StdDev(pilot)
	alpha := 1 - confidence
	tcrit := dist.StudentT{Nu: float64(n - 1)}.Quantile(1 - alpha/2)
	need := math.Pow(s*tcrit/(relErr*math.Abs(mean)), 2)
	res := int(math.Ceil(need))
	if res < 2 {
		res = 2
	}
	return res, nil
}

// StoppingRule implements the sequential nonparametric stopping criterion
// of §4.2.2: after each batch of k measurements, recompute the 1−α CI of
// the target quantile and stop once its relative width is at most the
// requested error level. MaxN bounds the total effort.
type StoppingRule struct {
	Confidence float64 // e.g. 0.95
	RelErr     float64 // e.g. 0.05 → CI half-width within 5% of the estimate
	Quantile   float64 // which quantile to bound, e.g. 0.5 for the median
	BatchSize  int     // recheck cadence k (>= 1)
	MaxN       int     // hard ceiling on measurements (0 = 10,000)
}

// Done reports whether the sample already satisfies the stopping
// criterion, returning the interval that was checked. Samples smaller
// than 6 never satisfy it (nonparametric CIs need n > 5).
func (r StoppingRule) Done(xs []float64) (bool, Interval) {
	iv, err := QuantileCI(xs, r.quantile(), r.Confidence)
	if err != nil {
		return false, Interval{}
	}
	rw := iv.RelativeWidth()
	return !math.IsNaN(rw) && rw <= r.RelErr, iv
}

func (r StoppingRule) quantile() float64 {
	if r.Quantile == 0 {
		return 0.5
	}
	return r.Quantile
}

func (r StoppingRule) batch() int {
	if r.BatchSize < 1 {
		return 1
	}
	return r.BatchSize
}

func (r StoppingRule) maxN() int {
	if r.MaxN <= 0 {
		return 10000
	}
	return r.MaxN
}

// Collect repeatedly invokes measure, rechecking the criterion every
// BatchSize observations, and returns the collected sample together with
// the final interval. It stops at MaxN even if the target width was not
// reached; callers can detect that by re-testing Done.
func (r StoppingRule) Collect(measure func() float64) ([]float64, Interval) {
	var xs []float64
	var iv Interval
	k := r.batch()
	max := r.maxN()
	for len(xs) < max {
		for i := 0; i < k && len(xs) < max; i++ {
			xs = append(xs, measure())
		}
		var done bool
		done, iv = r.Done(xs)
		if done {
			break
		}
	}
	return xs, iv
}
