package htest

import (
	"math"
	"sort"
)

// ChangePoint is the result of Pettitt's nonparametric change-point test
// over an ordered measurement stream: the null hypothesis is that the
// series is one homogeneous sample; the alternative is a location shift
// at some unknown index — a regime change mid-campaign (a daemon waking
// up, a straggler onset, interference starting), the contamination that
// Hunold & Carpen-Amarie and Kalibera & Jones identify as a dominant
// source of irreproducible benchmark results.
type ChangePoint struct {
	// Index is the 0-based index of the last observation attributed to
	// the first regime (the shift happens between Index and Index+1).
	Index int
	// K is Pettitt's statistic max|U_k| (a Mann–Whitney sweep over all
	// split points).
	K float64
	// P is the approximate two-sided significance of the shift,
	// p ≈ 2·exp(−6K²/(n³+n²)) — conservative for p < 0.5.
	P float64
	// MedianBefore and MedianAfter summarize the two regimes around the
	// detected split, for reporting the shift magnitude.
	MedianBefore, MedianAfter float64
}

// Significant reports whether the shift is significant at level alpha.
func (c ChangePoint) Significant(alpha float64) bool { return c.P < alpha }

// Pettitt runs Pettitt's change-point test on the ordered series xs.
// The statistic is computed through the rank formulation
//
//	U_k = 2·Σ_{i≤k} r_i − k·(n+1),  k = 1..n−1
//
// with mid-ranks for ties, where r_i is the rank of xs[i] in the whole
// series; K = max|U_k| and the significance uses the standard
// approximation p ≈ 2·exp(−6K²/(n³+n²)). At least 8 observations are
// required for the approximation to be meaningful; a NaN observation
// fails with ErrNonFinite.
func Pettitt(xs []float64) (ChangePoint, error) {
	n := len(xs)
	if n < 8 {
		return ChangePoint{}, ErrSampleSize
	}

	ranks, _, err := midRanks(xs)
	if err != nil {
		return ChangePoint{}, err
	}

	nf := float64(n)
	var cum, bestK float64
	bestIdx := 0
	for k := 1; k < n; k++ {
		cum += ranks[k-1]
		u := 2*cum - float64(k)*(nf+1)
		if a := math.Abs(u); a > bestK {
			bestK = a
			bestIdx = k - 1
		}
	}

	p := 2 * math.Exp(-6*bestK*bestK/(nf*nf*nf+nf*nf))
	if p > 1 {
		p = 1
	}
	cp := ChangePoint{Index: bestIdx, K: bestK, P: p}
	before := append([]float64(nil), xs[:bestIdx+1]...)
	after := append([]float64(nil), xs[bestIdx+1:]...)
	cp.MedianBefore = medianOf(before)
	cp.MedianAfter = medianOf(after)
	return cp, nil
}

// medianOf sorts its own copy; tiny helper to avoid an import cycle with
// the callers that already depend on htest.
func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
