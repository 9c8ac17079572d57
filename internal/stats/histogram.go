package stats

import "math"

// LogHistogram is an HDR-style log-bucketed latency histogram: values are
// binned by binary exponent with histSubBuckets linear sub-buckets per
// octave, giving a bounded relative error of 1/histSubBuckets (≈1.6%)
// across the whole range. It is the repository's one streaming-quantile
// type: telemetry histograms, summary-mode collective results and serve
// latencies all record into it, and it supports arbitrary-rank queries
// after the fact — which is what the nonparametric rank-based confidence
// intervals of internal/ci need for tail percentiles (p99, p999).
//
// The geometry is fixed for the whole package (histMinExp..histMaxExp
// octaves), so any two Histograms are mergeable by element-wise count
// addition; there is no configuration to drift between a worker's
// histogram and the merge target. Record performs no heap allocations
// (the counts live in a fixed-size array), so the serve hot loop can
// record per-request latencies at memory speed. The zero value is ready
// to use.
type LogHistogram struct {
	counts [histBuckets]uint64
	total  uint64
	sum    float64
	min    float64 // exact extremes of recorded values
	max    float64
}

const (
	// histSubBits sets the linear sub-bucket resolution per octave:
	// 2^6 = 64 sub-buckets bound the relative quantization error by
	// 1/64 ≈ 1.6%, comfortably inside the sampling noise of any tail
	// estimate the harness reports.
	histSubBits    = 6
	histSubBuckets = 1 << histSubBits
	// histMinExp..histMaxExp are the frexp exponents covered exactly:
	// 2^(histMinExp-1) ≈ 2.3e-10 up to 2^histMaxExp ≈ 2.1e9. The range
	// serves both units the harness records: seconds (sub-nanosecond
	// collective skews) and microseconds (telemetry durations such as a
	// ~1e6 µs suite configuration). Values outside clamp to the
	// first/last bucket (their exact magnitude survives in Min/Max).
	histMinExp  = -31
	histMaxExp  = 31
	histOctaves = histMaxExp - histMinExp + 1
	histBuckets = histOctaves * histSubBuckets
)

// histIndex maps a positive value to its bucket.
func histIndex(v float64) int {
	if math.IsInf(v, 1) {
		return histBuckets - 1
	}
	f, e := math.Frexp(v) // v = f·2^e, f ∈ [0.5, 1)
	if e < histMinExp {
		return 0
	}
	if e > histMaxExp {
		return histBuckets - 1
	}
	sub := int((2*f - 1) * histSubBuckets) // linear position within the octave
	if sub >= histSubBuckets {
		sub = histSubBuckets - 1
	}
	return (e-histMinExp)*histSubBuckets + sub
}

// histValue returns the representative (midpoint) value of bucket idx.
func histValue(idx int) float64 {
	e := idx/histSubBuckets + histMinExp
	sub := idx % histSubBuckets
	return math.Ldexp(1+(float64(sub)+0.5)/histSubBuckets, e-1)
}

// Record adds one observation. NaN is ignored; zero and negative values
// clamp into the first bucket (latencies are nonnegative by
// construction, but a histogram must not corrupt itself on bad input).
// It never allocates.
func (h *LogHistogram) Record(v float64) {
	if math.IsNaN(v) {
		return
	}
	idx := 0
	if v > 0 {
		idx = histIndex(v)
	}
	h.counts[idx]++
	if h.total == 0 || v < h.min {
		h.min = v
	}
	if h.total == 0 || v > h.max {
		h.max = v
	}
	h.total++
	h.sum += v
}

// Count returns the number of recorded observations.
func (h *LogHistogram) Count() uint64 { return h.total }

// Sum returns the sum of recorded observations.
func (h *LogHistogram) Sum() float64 { return h.sum }

// Mean returns the arithmetic mean, or NaN if empty.
func (h *LogHistogram) Mean() float64 {
	if h.total == 0 {
		return math.NaN()
	}
	return h.sum / float64(h.total)
}

// Min returns the smallest recorded value (exact), or NaN if empty.
func (h *LogHistogram) Min() float64 {
	if h.total == 0 {
		return math.NaN()
	}
	return h.min
}

// Max returns the largest recorded value (exact), or NaN if empty.
func (h *LogHistogram) Max() float64 {
	if h.total == 0 {
		return math.NaN()
	}
	return h.max
}

// Reset returns the histogram to its empty state.
func (h *LogHistogram) Reset() {
	*h = LogHistogram{}
}

// Merge adds o's counts into h. Both histograms share the package-wide
// geometry, so the merge is exact: quantiles of the merged histogram
// equal quantiles of recording every observation into one histogram.
func (h *LogHistogram) Merge(o *LogHistogram) {
	if o == nil || o.total == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.total == 0 || o.min < h.min {
		h.min = o.min
	}
	if h.total == 0 || o.max > h.max {
		h.max = o.max
	}
	h.total += o.total
	h.sum += o.sum
}

// ValueAtRank returns the representative value of the observation at
// 1-based rank r in ascending order (rank 1 = smallest). Ranks clamp to
// [1, Count]; an empty histogram returns NaN. The first- and last-rank
// values are reported exactly (the tracked min/max); interior ranks
// carry the bucket quantization error of ≤1/64.
func (h *LogHistogram) ValueAtRank(r uint64) float64 {
	if h.total == 0 {
		return math.NaN()
	}
	if r < 1 {
		r = 1
	}
	if r > h.total {
		r = h.total
	}
	if r == 1 {
		return h.min
	}
	if r == h.total {
		return h.max
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= r {
			return histValue(i)
		}
	}
	return h.max
}

// Quantile returns the nearest-rank p-quantile estimate: the value at
// rank ⌈p·n⌉. p ≤ 0 maps to the exact minimum, p ≥ 1 to the exact
// maximum. Unlike stats.Quantile over raw samples there is no
// interpolation between order statistics — ranks resolve to bucket
// midpoints with relative error ≤1/64.
func (h *LogHistogram) Quantile(p float64) float64 {
	if h.total == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return h.min
	}
	if p >= 1 {
		return h.max
	}
	r := uint64(math.Ceil(p * float64(h.total)))
	if r < 1 {
		r = 1
	}
	return h.ValueAtRank(r)
}
