package stats

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

func TestHistogramEmpty(t *testing.T) {
	var h LogHistogram
	if h.Count() != 0 {
		t.Fatalf("empty count = %d", h.Count())
	}
	for _, v := range []float64{h.Min(), h.Max(), h.Mean(), h.Quantile(0.5), h.ValueAtRank(1)} {
		if !math.IsNaN(v) {
			t.Fatalf("empty histogram statistic = %g, want NaN", v)
		}
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	// Every quantile estimate must land within the bucket quantization
	// bound of the exact order statistic, for latencies in seconds and
	// for telemetry durations in microseconds alike.
	rng := rand.New(rand.NewPCG(7, 11))
	cases := []struct {
		name string
		draw func() float64
	}{
		// Lognormal latencies in seconds spanning several octaves.
		{"seconds", func() float64 { return 200e-6 * math.Exp(0.8*rng.NormFloat64()) }},
		// Log-uniform microseconds over 1e2..1e7: fsyncs to whole
		// suite configurations.
		{"microseconds", func() float64 { return math.Pow(10, 2+5*rng.Float64()) }},
	}
	for _, c := range cases {
		n := 50000
		xs := make([]float64, n)
		var h LogHistogram
		for i := range xs {
			v := c.draw()
			xs[i] = v
			h.Record(v)
		}
		sort.Float64s(xs)
		for _, p := range []float64{0.001, 0.25, 0.5, 0.9, 0.99, 0.999} {
			exact := xs[int(math.Ceil(p*float64(n)))-1]
			got := h.Quantile(p)
			if rel := math.Abs(got-exact) / exact; rel > 1.0/histSubBuckets+1e-9 {
				t.Errorf("%s p=%g: hist %.6g vs exact %.6g (rel err %.4f > %.4f)",
					c.name, p, got, exact, rel, 1.0/histSubBuckets)
			}
		}
		if h.Min() != xs[0] || h.Max() != xs[n-1] {
			t.Errorf("%s: extremes not exact: min %g/%g max %g/%g", c.name, h.Min(), xs[0], h.Max(), xs[n-1])
		}
		if math.Abs(h.Mean()-Mean(xs))/Mean(xs) > 1e-9 {
			t.Errorf("%s: mean %g vs exact %g", c.name, h.Mean(), Mean(xs))
		}
	}
}

func TestHistogramMergeMatchesSingle(t *testing.T) {
	// Recording a stream into k shards and merging must be exactly the
	// single-histogram result: same counts, same quantiles, same
	// extremes — the property the sharded serve sweep relies on.
	rng := rand.New(rand.NewPCG(3, 5))
	var whole LogHistogram
	shards := make([]LogHistogram, 4)
	for i := 0; i < 20000; i++ {
		v := math.Exp(2 * rng.NormFloat64())
		whole.Record(v)
		shards[i%len(shards)].Record(v)
	}
	var merged LogHistogram
	for i := range shards {
		merged.Merge(&shards[i])
	}
	if merged.Count() != whole.Count() {
		t.Fatalf("merge count mismatch: %d vs %d", merged.Count(), whole.Count())
	}
	// Sums accumulate in different orders, so equality is up to float
	// rounding, not bit-exact.
	if math.Abs(merged.Sum()-whole.Sum())/whole.Sum() > 1e-12 {
		t.Fatalf("merge sum mismatch: %g vs %g", merged.Sum(), whole.Sum())
	}
	if merged.Min() != whole.Min() || merged.Max() != whole.Max() {
		t.Fatalf("merge extremes mismatch")
	}
	for _, p := range []float64{0.01, 0.5, 0.99, 0.999} {
		if m, w := merged.Quantile(p), whole.Quantile(p); m != w {
			t.Errorf("p=%g: merged %g != whole %g", p, m, w)
		}
	}
}

func TestHistogramBadInput(t *testing.T) {
	var h LogHistogram
	h.Record(math.NaN()) // ignored
	if h.Count() != 0 {
		t.Fatalf("NaN was recorded")
	}
	h.Record(-1) // clamps to the first bucket
	h.Record(0)
	h.Record(1e-300) // below the range: first bucket
	h.Record(1e300)  // above the range: last bucket
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	if h.Min() != -1 || h.Max() != 1e300 {
		t.Fatalf("extremes %g..%g not exact", h.Min(), h.Max())
	}
	if h.ValueAtRank(1) != -1 || h.ValueAtRank(h.Count()) != 1e300 {
		t.Fatalf("first/last rank must report exact extremes")
	}
}

func TestHistogramRecordZeroAllocs(t *testing.T) {
	var h LogHistogram
	allocs := testing.AllocsPerRun(1000, func() {
		h.Record(123e-6)
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %.1f per op, want 0", allocs)
	}
}

func TestHistogramReset(t *testing.T) {
	var h LogHistogram
	h.Record(1)
	h.Reset()
	if h.Count() != 0 || !math.IsNaN(h.Quantile(0.5)) {
		t.Fatalf("Reset did not empty the histogram")
	}
}

// FuzzHistogramMerge checks the merge identity on arbitrary splits of an
// arbitrary value stream: merging shard histograms must be
// indistinguishable from recording everything into one histogram, and no
// input (NaN, infinities, subnormals, negatives) may panic or corrupt
// counts.
func FuzzHistogramMerge(f *testing.F) {
	f.Add(uint64(1), uint16(100), uint8(3))
	f.Add(uint64(42), uint16(1000), uint8(1))
	f.Add(uint64(7), uint16(17), uint8(7))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, k uint8) {
		shards := int(k%8) + 1
		rng := rand.New(rand.NewPCG(seed, 0xabcdef))
		var whole LogHistogram
		parts := make([]LogHistogram, shards)
		recorded := uint64(0)
		for i := 0; i < int(n); i++ {
			var v float64
			switch rng.Uint64() % 8 {
			case 0:
				v = math.NaN()
			case 1:
				v = math.Inf(1)
			case 2:
				v = -rng.Float64()
			case 3:
				v = rng.Float64() * 1e-300
			default:
				v = math.Exp(10 * (rng.Float64() - 0.5))
			}
			whole.Record(v)
			parts[i%shards].Record(v)
			if !math.IsNaN(v) {
				recorded++
			}
		}
		var merged LogHistogram
		for i := range parts {
			merged.Merge(&parts[i])
		}
		if merged.Count() != whole.Count() || whole.Count() != recorded {
			t.Fatalf("count: merged %d whole %d recorded %d", merged.Count(), whole.Count(), recorded)
		}
		if recorded == 0 {
			return
		}
		for _, p := range []float64{0, 0.5, 0.99, 1} {
			m, w := merged.Quantile(p), whole.Quantile(p)
			if m != w && !(math.IsNaN(m) && math.IsNaN(w)) {
				t.Fatalf("p=%g: merged %g != whole %g", p, m, w)
			}
		}
	})
}
