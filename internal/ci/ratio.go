package ci

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/dist"
)

// RatioCI returns the distribution-free confidence interval for the
// ratio cand/base of two independent samples of positive costs:
// Mann–Whitney inverted on log values (Hodges & Lehmann), the interval
// on the ratio itself that Touati asks of a speedup. Center is exp of
// the median of the m·n log differences log(cand_j) − log(base_i); Lo
// and Hi are exp of their k-th smallest and k-th largest, with
//
//	k = ⌊mn/2 − z(α/2)·√(mn(m+n+1)/12)⌋,
//
// found by counting, never by forming the m·n differences. Like
// QuantileCI it bounds with measured values, so it is conservative.
// ErrTooFewSamples is returned when k < 1 (3 vs 3 at 95%; 5 vs 5 gives
// k = 3, 96.8% exact coverage), and an error for a non-positive,
// infinite or NaN sample.
func RatioCI(base, cand []float64, confidence float64) (Interval, error) {
	if !(confidence > 0 && confidence < 1) {
		return Interval{}, ErrConfidence
	}
	a, err := sortedLogs(base)
	if err != nil {
		return Interval{}, err
	}
	b, err := sortedLogs(cand)
	if err != nil {
		return Interval{}, err
	}
	m, n := float64(len(a)), float64(len(b))
	z := dist.NormalQuantile(1 - (1-confidence)/2)
	k := int64(math.Floor(m*n/2 - z*math.Sqrt(m*n*(m+n+1)/12)))
	if k < 1 {
		return Interval{}, ErrTooFewSamples
	}
	total := int64(len(a)) * int64(len(b))
	center := (pairDiffRank(a, b, (total+1)/2) + pairDiffRank(a, b, total/2+1)) / 2
	return Interval{
		Lo:         math.Exp(pairDiffRank(a, b, k)),
		Hi:         math.Exp(pairDiffRank(a, b, total-k+1)),
		Confidence: confidence,
		Center:     math.Exp(center),
	}, nil
}

func sortedLogs(xs []float64) ([]float64, error) {
	out := make([]float64, len(xs))
	for i, x := range xs {
		if !(x > 0) || math.IsInf(x, 1) {
			return nil, fmt.Errorf("ci: ratio interval needs positive finite samples, got %g", x)
		}
		out[i] = math.Log(x)
	}
	slices.Sort(out)
	return out, nil
}

// pairDiffRank returns the r-th smallest (1-based) of the differences
// b[j] − a[i], for ascending a and b: it bisects the float64 values
// from the smallest to the largest difference, in bit order, for the
// least v with at least r differences ≤ v. That v is a difference, found
// in at most 64 counts of O(m+n) each.
func pairDiffRank(a, b []float64, r int64) float64 {
	lo, hi := orderedBits(b[0]-a[len(a)-1]), orderedBits(b[len(b)-1]-a[0])
	for lo < hi {
		mid := lo + (hi-lo)/2
		if pairsAtMost(a, b, fromOrderedBits(mid)) >= r {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return fromOrderedBits(lo)
}

// pairsAtMost counts the pairs with b[j] − a[i] ≤ v in one sweep: the
// rounded differences fall as a[i] rises, so the count per row never
// shrinks from one row to the next.
func pairsAtMost(a, b []float64, v float64) int64 {
	var count int64
	j := 0
	for _, x := range a {
		for j < len(b) && b[j]-x <= v {
			j++
		}
		count += int64(j)
	}
	return count
}

// orderedBits maps a non-NaN float64 to a uint64 in the same order;
// fromOrderedBits inverts it.
func orderedBits(x float64) uint64 {
	u := math.Float64bits(x)
	if u>>63 == 1 {
		return ^u
	}
	return u | 1<<63
}

func fromOrderedBits(u uint64) float64 {
	if u>>63 == 1 {
		return math.Float64frombits(u &^ (1 << 63))
	}
	return math.Float64frombits(^u)
}
