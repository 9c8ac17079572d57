package htest

import (
	"math"
	"sort"
)

// midRanks returns the 1-based rank of every value of xs, in input
// order, with tied values sharing the mean of the ranks they span, and
// the tie term Σ(t³ − t) over the tie groups of size t. A NaN anywhere
// in xs fails with ErrNonFinite: it compares unequal to everything,
// itself included, so no rank or tie group can hold it.
func midRanks(xs []float64) (ranks []float64, tieTerm float64, err error) {
	for _, x := range xs {
		if math.IsNaN(x) {
			return nil, 0, ErrNonFinite
		}
	}
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks = make([]float64, n)
	for i := 0; i < n; {
		j := i + 1
		for j < n && xs[idx[j]] == xs[idx[i]] {
			j++
		}
		r := float64(i+j+1) / 2 // average of 1-based ranks i+1..j
		for _, k := range idx[i:j] {
			ranks[k] = r
		}
		t := float64(j - i)
		tieTerm += t*t*t - t
		i = j
	}
	return ranks, tieTerm, nil
}
