package stats

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func closeTo(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.IsNaN(got) != math.IsNaN(want) || math.Abs(got-want) > tol {
		t.Errorf("%s = %.12g, want %.12g", name, got, want)
	}
}

func TestMeanBasics(t *testing.T) {
	closeTo(t, "Mean", Mean([]float64{1, 2, 3, 4}), 2.5, 1e-15)
	closeTo(t, "Mean single", Mean([]float64{7}), 7, 1e-15)
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
}

// TestPaperHPLMeansExample reproduces the §3.1.1 worked example exactly:
// three HPL runs of 100 Gflop at (10, 100, 40) s.
func TestPaperHPLMeansExample(t *testing.T) {
	times := []float64{10, 100, 40}
	const work = 100.0 // Gflop

	// Arithmetic mean of times is 50 s → 2 Gflop/s aggregate rate.
	closeTo(t, "mean time", Mean(times), 50, 1e-12)
	rateFromMeanTime := work / Mean(times)
	closeTo(t, "rate from mean time", rateFromMeanTime, 2, 1e-12)

	// Per-run rates (10, 1, 2.5) Gflop/s.
	rates := make([]float64, len(times))
	for i, s := range times {
		rates[i] = work / s
	}
	// Arithmetic mean of the rates is the *wrong* 4.5 Gflop/s.
	closeTo(t, "arith mean of rates", Mean(rates), 4.5, 1e-12)
	// Harmonic mean of the rates recovers the correct 2 Gflop/s.
	h, err := HarmonicMean(rates)
	if err != nil {
		t.Fatal(err)
	}
	closeTo(t, "harmonic mean of rates", h, 2, 1e-12)

	// Relative rates against 10 Gflop/s peak are (1, 0.1, 0.25);
	// their geometric mean is ~0.29 (the paper's "incorrect" 2.9 Gflop/s).
	ratios := []float64{1, 0.1, 0.25}
	g, err := GeometricMean(ratios)
	if err != nil {
		t.Fatal(err)
	}
	closeTo(t, "geometric mean of ratios", g, math.Cbrt(0.025), 1e-12)
	if math.Abs(g-0.29) > 0.005 {
		t.Errorf("geometric mean %g, paper reports ≈0.29", g)
	}

	// RateFromCosts gives the correct answer directly from raw costs.
	flops := []float64{100, 100, 100}
	r, err := RateFromCosts(flops, times)
	if err != nil {
		t.Fatal(err)
	}
	closeTo(t, "RateFromCosts", r, 2, 1e-12)
}

func TestSummarizeMeanByKind(t *testing.T) {
	xs := []float64{1, 2, 4}
	c, err := SummarizeMean(Cost, xs)
	if err != nil {
		t.Fatal(err)
	}
	closeTo(t, "cost mean", c, 7.0/3.0, 1e-12)

	r, err := SummarizeMean(Rate, xs)
	if err != nil {
		t.Fatal(err)
	}
	closeTo(t, "rate mean", r, 3.0/(1+0.5+0.25), 1e-12)

	g, err := SummarizeMean(Ratio, xs)
	if err != ErrRatioSummary {
		t.Errorf("ratio summary should return the advisory ErrRatioSummary, got %v", err)
	}
	closeTo(t, "ratio mean", g, 2, 1e-12)
}

// TestMeanInequality checks HM <= GM <= AM on random positive samples.
func TestMeanInequality(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	f := func(seed uint64) bool {
		n := int(seed%20) + 2
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64()*100 + 0.001
		}
		am := Mean(xs)
		gm, err1 := GeometricMean(xs)
		hm, err2 := HarmonicMean(xs)
		if err1 != nil || err2 != nil {
			return false
		}
		const slack = 1e-9
		return hm <= gm+slack && gm <= am+slack
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestNonPositiveRejected(t *testing.T) {
	if _, err := HarmonicMean([]float64{1, 0}); err != ErrNonPositive {
		t.Errorf("HarmonicMean with zero: err = %v, want ErrNonPositive", err)
	}
	if _, err := GeometricMean([]float64{1, -2}); err != ErrNonPositive {
		t.Errorf("GeometricMean with negative: err = %v, want ErrNonPositive", err)
	}
	if _, err := HarmonicMean(nil); err != ErrEmpty {
		t.Errorf("HarmonicMean(nil): err = %v, want ErrEmpty", err)
	}
}

func TestVarianceKnown(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Population variance is 4; sample variance is 32/7.
	closeTo(t, "Variance", Variance(xs), 32.0/7.0, 1e-12)
	closeTo(t, "StdDev", StdDev(xs), math.Sqrt(32.0/7.0), 1e-12)
	closeTo(t, "CoV", CoV(xs), math.Sqrt(32.0/7.0)/5.0, 1e-12)
	if !math.IsNaN(Variance([]float64{1})) {
		t.Error("Variance of n=1 should be NaN")
	}
}

func TestQuantileType7(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	closeTo(t, "q0", Quantile(s, 0), 1, 1e-15)
	closeTo(t, "q1", Quantile(s, 1), 4, 1e-15)
	closeTo(t, "median", Quantile(s, 0.5), 2.5, 1e-15)
	closeTo(t, "q0.25", Quantile(s, 0.25), 1.75, 1e-15) // R type-7
	closeTo(t, "q0.75", Quantile(s, 0.75), 3.25, 1e-15)

	odd := []float64{10, 20, 30}
	closeTo(t, "median odd", Quantile(odd, 0.5), 20, 1e-15)
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile of empty should be NaN")
	}
	if !math.IsNaN(Quantile(s, -0.1)) || !math.IsNaN(Quantile(s, 1.1)) {
		t.Error("Quantile outside [0,1] should be NaN")
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	f := func(seed uint64) bool {
		n := int(seed%50) + 1
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		s := Sorted(xs)
		prev := math.Inf(-1)
		for p := 0.0; p <= 1.0; p += 0.05 {
			q := Quantile(s, p)
			if q < prev {
				return false
			}
			prev = q
		}
		return Quantile(s, 0) == s[0] && Quantile(s, 1) == s[n-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMedianAndIQR(t *testing.T) {
	xs := []float64{5, 1, 9, 3, 7}
	closeTo(t, "Median", Median(xs), 5, 1e-15)
	closeTo(t, "IQR", IQR(xs), 4, 1e-15) // q3=7, q1=3 (type-7)
}

func TestWelfordMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 4))
	xs := make([]float64, 1000)
	var w Welford
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 17
		w.Add(xs[i])
	}
	closeTo(t, "Welford mean", w.Mean(), Mean(xs), 1e-10)
	closeTo(t, "Welford var", w.Variance(), Variance(xs), 1e-9)
	closeTo(t, "Welford min", w.Min(), Min(xs), 0)
	closeTo(t, "Welford max", w.Max(), Max(xs), 0)
	if w.N() != 1000 {
		t.Errorf("N = %d", w.N())
	}
}

func TestWelfordMerge(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	xs := make([]float64, 501)
	for i := range xs {
		xs[i] = rng.ExpFloat64()
	}
	var a, b, whole Welford
	for i, x := range xs {
		whole.Add(x)
		if i < 200 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(b)
	closeTo(t, "merged mean", a.Mean(), whole.Mean(), 1e-12)
	closeTo(t, "merged var", a.Variance(), whole.Variance(), 1e-12)
	if a.N() != whole.N() {
		t.Errorf("merged N = %d, want %d", a.N(), whole.N())
	}

	// Merging into an empty accumulator copies.
	var empty Welford
	empty.Merge(whole)
	closeTo(t, "merge into empty", empty.Mean(), whole.Mean(), 0)
	// Merging an empty accumulator is a no-op.
	before := whole.Mean()
	whole.Merge(Welford{})
	closeTo(t, "merge empty no-op", whole.Mean(), before, 0)
}

func TestTukeyOutliers(t *testing.T) {
	xs := []float64{1, 2, 2, 3, 3, 3, 4, 4, 5, 100}
	kept, outliers := TukeyFilter(xs, 1.5)
	if len(outliers) != 1 || outliers[0] != 100 {
		t.Errorf("outliers = %v, want [100]", outliers)
	}
	if len(kept) != 9 {
		t.Errorf("kept %d values, want 9", len(kept))
	}
	// A conservative-enough constant keeps everything (IQR = 1.75,
	// so hi = 4 + 60·1.75 = 109 > 100).
	_, out3 := TukeyFilter(xs, 60)
	if len(out3) != 0 {
		t.Errorf("k=60 should keep all, removed %v", out3)
	}
	k, o := TukeyFilter(nil, 1.5)
	if k != nil || o != nil {
		t.Error("TukeyFilter(nil) should return nils")
	}
}

func TestLogTransform(t *testing.T) {
	out, err := LogTransform([]float64{1, math.E, math.E * math.E})
	if err != nil {
		t.Fatal(err)
	}
	closeTo(t, "log[0]", out[0], 0, 1e-15)
	closeTo(t, "log[1]", out[1], 1, 1e-15)
	closeTo(t, "log[2]", out[2], 2, 1e-15)
	if _, err := LogTransform([]float64{1, 0}); err == nil {
		t.Error("LogTransform with zero should error")
	}
}

func TestBlockNormalize(t *testing.T) {
	xs := []float64{1, 3, 5, 7, 9, 11, 13}
	out, err := BlockNormalize(xs, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 6, 10}
	if len(out) != len(want) {
		t.Fatalf("len = %d, want %d", len(out), len(want))
	}
	for i := range want {
		closeTo(t, "block mean", out[i], want[i], 1e-15)
	}
	if _, err := BlockNormalize(xs, 0); err == nil {
		t.Error("k=0 should error")
	}
	if _, err := BlockNormalize(xs[:1], 2); err != ErrEmpty {
		t.Error("too-small sample should return ErrEmpty")
	}
}

// TestBlockNormalizeGaussianizes verifies the CLT claim behind Fig 2:
// block means of a skewed distribution are closer to normal (by Q-Q
// straightness) than the raw data.
func TestBlockNormalizeGaussianizes(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = math.Exp(rng.NormFloat64()) // log-normal, heavily skewed
	}
	rawCorr := QQCorrelation(xs)
	norm, err := BlockNormalize(xs, 100)
	if err != nil {
		t.Fatal(err)
	}
	blockCorr := QQCorrelation(norm)
	if blockCorr <= rawCorr {
		t.Errorf("block-normalized Q-Q correlation %.4f should exceed raw %.4f",
			blockCorr, rawCorr)
	}
	if blockCorr < 0.99 {
		t.Errorf("block means of k=100 should be nearly normal, corr = %.4f", blockCorr)
	}
}

func TestSkewnessSign(t *testing.T) {
	right := []float64{1, 1, 1, 2, 2, 3, 10}
	if Skewness(right) <= 0 {
		t.Errorf("right-skewed sample has skewness %g", Skewness(right))
	}
	sym := []float64{-2, -1, 0, 1, 2}
	closeTo(t, "symmetric skewness", Skewness(sym), 0, 1e-12)
	if !math.IsNaN(Skewness([]float64{1, 2})) {
		t.Error("skewness of n=2 should be NaN")
	}
}

func TestSummarize(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	s := Summarize(xs)
	if s.N != 5 {
		t.Errorf("N = %d", s.N)
	}
	closeTo(t, "summary mean", s.Mean, 3, 1e-15)
	closeTo(t, "summary median", s.Median, 3, 1e-15)
	closeTo(t, "summary min", s.Min, 1, 1e-15)
	closeTo(t, "summary max", s.Max, 5, 1e-15)
	if s.String() == "" {
		t.Error("String should be non-empty")
	}
}

func TestCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	closeTo(t, "perfect corr", Correlation(xs, ys), 1, 1e-12)
	neg := []float64{8, 6, 4, 2}
	closeTo(t, "perfect anticorr", Correlation(xs, neg), -1, 1e-12)
	if !math.IsNaN(Correlation(xs, ys[:3])) {
		t.Error("length mismatch should be NaN")
	}
	if !math.IsNaN(Correlation([]float64{1, 1}, []float64{2, 3})) {
		t.Error("constant sample should be NaN")
	}
}

func TestHistogram(t *testing.T) {
	xs := []float64{0, 0.1, 0.2, 0.5, 0.9, 1.0}
	bins := Histogram(xs, 2)
	if len(bins) != 2 {
		t.Fatalf("bins = %d", len(bins))
	}
	// Bins are [0, 0.5) and [0.5, 1]: 0.5 belongs to the second bin.
	if bins[0].Count != 3 || bins[1].Count != 3 {
		t.Errorf("counts = %d,%d want 3,3", bins[0].Count, bins[1].Count)
	}
	total := 0
	for _, b := range bins {
		total += b.Count
	}
	if total != len(xs) {
		t.Errorf("histogram loses observations: %d != %d", total, len(xs))
	}
	// Degenerate constant sample.
	one := Histogram([]float64{3, 3, 3}, 4)
	if len(one) != 1 || one[0].Count != 3 {
		t.Errorf("constant-sample histogram = %+v", one)
	}
	if Histogram(nil, 3) != nil {
		t.Error("empty histogram should be nil")
	}
}

func TestHistogramConservesProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 13))
	f := func(seed uint64) bool {
		n := int(seed%100) + 1
		nbins := int(seed%10) + 1
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		total := 0
		for _, b := range Histogram(xs, nbins) {
			total += b.Count
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestKDEIntegratesToOne(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 1))
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = rng.NormFloat64()*2 + 5
	}
	pts := KDE(xs, 0, 512)
	if len(pts) != 512 {
		t.Fatalf("points = %d", len(pts))
	}
	integral := 0.0
	for i := 1; i < len(pts); i++ {
		dx := pts[i].X - pts[i-1].X
		integral += 0.5 * (pts[i].Density + pts[i-1].Density) * dx
	}
	if math.Abs(integral-1) > 0.02 {
		t.Errorf("KDE integral = %g, want ≈1", integral)
	}
}

func TestQQPointsStraightForNormal(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 6))
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	if c := QQCorrelation(xs); c < 0.999 {
		t.Errorf("normal Q-Q correlation %g, want > 0.999", c)
	}
}

func TestSturgesBins(t *testing.T) {
	if SturgesBins(1) != 1 {
		t.Error("n=1")
	}
	if got := SturgesBins(1024); got != 11 {
		t.Errorf("SturgesBins(1024) = %d, want 11", got)
	}
}

func TestKindString(t *testing.T) {
	if Cost.String() != "cost" || Rate.String() != "rate" || Ratio.String() != "ratio" {
		t.Error("Kind.String mismatch")
	}
	if Kind(42).String() == "" {
		t.Error("unknown kind should stringify")
	}
}
