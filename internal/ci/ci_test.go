package ci

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/dist"
	"repro/internal/stats"
)

func TestMeanCIKnownValue(t *testing.T) {
	// Sample {1..10}: mean 5.5, sd ≈ 3.02765, t(9, 0.975) ≈ 2.26216.
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	iv, err := MeanCI(xs, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	wantHalf := 2.2621571627 * 3.0276503540974917 / math.Sqrt(10)
	if math.Abs(iv.Center-5.5) > 1e-12 {
		t.Errorf("center = %g", iv.Center)
	}
	if math.Abs((iv.Hi-iv.Lo)/2-wantHalf) > 1e-6 {
		t.Errorf("half-width = %g, want %g", (iv.Hi-iv.Lo)/2, wantHalf)
	}
	if !iv.Contains(5.5) {
		t.Error("CI must contain the sample mean")
	}
}

func TestMeanCIErrors(t *testing.T) {
	if _, err := MeanCI([]float64{1}, 0.95); err != ErrTooFewSamples {
		t.Errorf("n=1: err = %v", err)
	}
	if _, err := MeanCI([]float64{1, 2}, 1.5); err != ErrConfidence {
		t.Errorf("conf=1.5: err = %v", err)
	}
	if _, err := MeanCI([]float64{1, 2}, 0); err != ErrConfidence {
		t.Errorf("conf=0: err = %v", err)
	}
}

// TestNaNArgumentsRejected: a NaN confidence, quantile or relative error
// fails every range check of the form c <= 0 || c >= 1, so each check is
// written !(c > 0 && c < 1). A NaN that got through once panicked with an
// index out of range in the rank arithmetic.
func TestNaNArgumentsRejected(t *testing.T) {
	nan := math.NaN()
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	s := stats.NewSample(xs)
	var h stats.LogHistogram
	for _, x := range xs {
		h.Record(x)
	}
	for name, f := range map[string]func(c float64) error{
		"MeanCI":           func(c float64) error { _, err := MeanCI(xs, c); return err },
		"MeanCISample":     func(c float64) error { _, err := MeanCISample(s, c); return err },
		"QuantileCI":       func(c float64) error { _, err := QuantileCI(xs, 0.5, c); return err },
		"QuantileCISample": func(c float64) error { _, err := QuantileCISample(s, 0.5, c); return err },
		"QuantileCIHist":   func(c float64) error { _, err := QuantileCIHist(&h, 0.5, c); return err },
		"RequiredSamples":  func(c float64) error { _, err := RequiredSamplesNormal(xs, c, 0.1); return err },
	} {
		if err := f(nan); err != ErrConfidence {
			t.Errorf("%s(confidence NaN): err = %v, want ErrConfidence", name, err)
		}
	}
	if _, err := QuantileCI(xs, nan, 0.95); err == nil {
		t.Error("QuantileCI accepted p = NaN")
	}
	if _, err := QuantileCISample(s, nan, 0.95); err == nil {
		t.Error("QuantileCISample accepted p = NaN")
	}
	if _, err := QuantileCIHist(&h, nan, 0.95); err == nil {
		t.Error("QuantileCIHist accepted p = NaN")
	}
	if _, err := RequiredSamplesNormal(xs, 0.95, nan); err == nil {
		t.Error("RequiredSamplesNormal accepted relErr = NaN")
	}
}

// TestMeanCICoverage checks the frequentist guarantee: across many
// repetitions, the 95% CI contains the true mean close to 95% of the time.
func TestMeanCICoverage(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	const trials = 2000
	const n = 20
	const mu = 10.0
	hits := 0
	for i := 0; i < trials; i++ {
		xs := make([]float64, n)
		for j := range xs {
			xs[j] = mu + 2*rng.NormFloat64()
		}
		iv, err := MeanCI(xs, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if iv.Contains(mu) {
			hits++
		}
	}
	cov := float64(hits) / trials
	// Binomial se ≈ sqrt(0.95·0.05/2000) ≈ 0.005; allow 4σ.
	if math.Abs(cov-0.95) > 0.02 {
		t.Errorf("empirical coverage %.3f, want ≈0.95", cov)
	}
}

// TestMedianCICoverage checks the nonparametric interval's coverage on a
// skewed (log-normal) distribution whose true median is known.
func TestMedianCICoverage(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	const trials = 1500
	const n = 51
	trueMedian := math.Exp(0.0) // median of LogNormal(0, 1) = 1
	hits := 0
	for i := 0; i < trials; i++ {
		xs := make([]float64, n)
		for j := range xs {
			xs[j] = math.Exp(rng.NormFloat64())
		}
		iv, err := MedianCI(xs, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if iv.Contains(trueMedian) {
			hits++
		}
	}
	cov := float64(hits) / trials
	// Rank CIs are conservative; coverage must be at least nominal
	// (within noise) and not wildly above.
	if cov < 0.93 {
		t.Errorf("median CI coverage %.3f, want >= ~0.95 (conservative)", cov)
	}
}

func TestQuantileCIRanksLeBoudec(t *testing.T) {
	// Le Boudec's example shape: for n=100, p=0.5, 95% CI the ranks are
	// floor(50 - 1.96*5) = 40 and ceil(50 + 1.96*5)+1 = 61.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // sorted 1..100
	}
	iv, err := QuantileCI(xs, 0.5, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Lo != 40 || iv.Hi != 61 {
		t.Errorf("median CI ranks = [%g, %g], want [40, 61]", iv.Lo, iv.Hi)
	}
	if iv.Center != 50.5 {
		t.Errorf("median = %g, want 50.5", iv.Center)
	}
}

func TestQuantileCIBoundsClamped(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7}
	iv, err := QuantileCI(xs, 0.9, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Lo < 1 || iv.Hi > 7 {
		t.Errorf("CI [%g, %g] escapes the sample", iv.Lo, iv.Hi)
	}
	if iv.Lo > iv.Hi {
		t.Error("inverted interval")
	}
}

func TestQuantileCIErrors(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if _, err := QuantileCI(xs, 0.5, 0.95); err != ErrTooFewSamples {
		t.Errorf("n=5: err = %v, want ErrTooFewSamples", err)
	}
	six := []float64{1, 2, 3, 4, 5, 6}
	if _, err := QuantileCI(six, 0, 0.95); err == nil {
		t.Error("p=0 should error")
	}
	if _, err := QuantileCI(six, 0.5, 0); err != ErrConfidence {
		t.Error("conf=0 should error")
	}
}

func TestIntervalOverlap(t *testing.T) {
	a := Interval{Lo: 1, Hi: 3}
	b := Interval{Lo: 2.5, Hi: 4}
	c := Interval{Lo: 3.5, Hi: 5}
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("a and b overlap")
	}
	if a.Overlaps(c) {
		t.Error("a and c are disjoint")
	}
	if !b.Overlaps(c) {
		t.Error("b and c overlap")
	}
	// Touching endpoints count as overlapping.
	d := Interval{Lo: 3, Hi: 4}
	if !a.Overlaps(d) {
		t.Error("touching intervals overlap")
	}
}

func TestRelativeWidth(t *testing.T) {
	iv := Interval{Lo: 9, Hi: 11, Center: 10}
	if math.Abs(iv.RelativeWidth()-0.1) > 1e-15 {
		t.Errorf("relative width = %g, want 0.1", iv.RelativeWidth())
	}
	if !math.IsNaN(Interval{Lo: -1, Hi: 1, Center: 0}.RelativeWidth()) {
		t.Error("zero center should be NaN")
	}
}

func TestRequiredSamplesNormal(t *testing.T) {
	// Pilot with CoV ≈ 0.2: a 5% target at 95% needs roughly
	// (0.2·2/0.05)² ≈ 64 samples (t slightly inflates it).
	rng := rand.New(rand.NewPCG(5, 6))
	pilot := make([]float64, 30)
	for i := range pilot {
		pilot[i] = 100 + 20*rng.NormFloat64()
	}
	n, err := RequiredSamplesNormal(pilot, 0.95, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if n < 30 || n > 150 {
		t.Errorf("required n = %d, expected on the order of 64", n)
	}
	// Tighter target needs quadratically more.
	n2, err := RequiredSamplesNormal(pilot, 0.95, 0.025)
	if err != nil {
		t.Fatal(err)
	}
	if n2 < 3*n {
		t.Errorf("halving the error should ~quadruple n: %d vs %d", n2, n)
	}
	if _, err := RequiredSamplesNormal(pilot[:1], 0.95, 0.05); err != ErrTooFewSamples {
		t.Error("tiny pilot should error")
	}
	if _, err := RequiredSamplesNormal(pilot, 0.95, 0); err == nil {
		t.Error("zero relErr should error")
	}
}

func TestRequiredSamplesEntryPoint(t *testing.T) {
	// RequiredSamples is the planner entry point (the facade's
	// RequiredSamples); today it must agree with the normal-approximation
	// rule exactly.
	rng := rand.New(rand.NewPCG(7, 8))
	pilot := make([]float64, 25)
	for i := range pilot {
		pilot[i] = 50 + 10*rng.NormFloat64()
	}
	a, err := RequiredSamples(pilot, 0.95, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RequiredSamplesNormal(pilot, 0.95, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("RequiredSamples = %d, RequiredSamplesNormal = %d", a, b)
	}
	if _, err := RequiredSamples(pilot[:1], 0.95, 0.05); err != ErrTooFewSamples {
		t.Error("tiny pilot should error through the entry point")
	}
}

func TestStoppingRuleConverges(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	gen := dist.LogNormal{Mu: 0, Sigma: 0.3}
	rule := StoppingRule{Confidence: 0.95, RelErr: 0.05, BatchSize: 10}
	xs, iv := rule.Collect(func() float64 { return gen.Rand(rng) })
	if len(xs) >= rule.maxN() {
		t.Fatalf("stopping rule did not converge within %d samples", rule.maxN())
	}
	if done, _ := rule.Done(xs); !done {
		t.Error("Collect returned before criterion was met")
	}
	if iv.RelativeWidth() > 0.05 {
		t.Errorf("final CI relative width %g > 0.05", iv.RelativeWidth())
	}
	// The interval must bracket the true median exp(0)=1... statistically;
	// with 95% confidence this may rarely fail, so only check sanity.
	if iv.Lo > iv.Hi {
		t.Error("inverted interval")
	}
}

func TestStoppingRuleMaxN(t *testing.T) {
	rng := rand.New(rand.NewPCG(10, 10))
	// Huge variance with a tight target: must hit the MaxN ceiling.
	rule := StoppingRule{Confidence: 0.99, RelErr: 0.0001, BatchSize: 50, MaxN: 500}
	xs, _ := rule.Collect(func() float64 { return math.Exp(3 * rng.NormFloat64()) })
	if len(xs) != 500 {
		t.Errorf("collected %d, want exactly MaxN=500", len(xs))
	}
}

func TestStoppingRuleDefaults(t *testing.T) {
	r := StoppingRule{}
	if r.quantile() != 0.5 || r.batch() != 1 || r.maxN() != 10000 {
		t.Errorf("defaults: q=%g k=%d max=%d", r.quantile(), r.batch(), r.maxN())
	}
	if done, _ := r.Done([]float64{1, 2, 3}); done {
		t.Error("tiny sample can never satisfy the rule")
	}
}

func TestIntervalString(t *testing.T) {
	iv := Interval{Lo: 1, Hi: 2, Confidence: 0.95, Center: 1.5}
	if iv.String() == "" {
		t.Error("empty String")
	}
}

// TestQuantileCICoverageP90 checks the rank interval's frequentist
// guarantee away from the median, where the interval is asymmetric.
func TestQuantileCICoverageP90(t *testing.T) {
	rng := rand.New(rand.NewPCG(77, 77))
	const trials = 1000
	const n = 200
	trueP90 := dist.LogNormal{Mu: 0, Sigma: 1}.Quantile(0.9)
	hits := 0
	for i := 0; i < trials; i++ {
		xs := make([]float64, n)
		for j := range xs {
			xs[j] = math.Exp(rng.NormFloat64())
		}
		iv, err := QuantileCI(xs, 0.9, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if iv.Contains(trueP90) {
			hits++
		}
	}
	cov := float64(hits) / trials
	if cov < 0.93 {
		t.Errorf("p90 CI coverage %.3f, want >= ~0.95 (conservative)", cov)
	}
}

func TestSampleVariantsMatch(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	xs := make([]float64, 120)
	for i := range xs {
		xs[i] = math.Exp(0.3 * rng.NormFloat64())
	}
	smp := stats.NewSample(xs)

	// Rank-based CIs share the exact same sorted-slice code path, so the
	// Sample variants must be bit-identical to the slice variants.
	for _, p := range []float64{0.25, 0.5, 0.9} {
		a, err := QuantileCI(xs, p, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		b, err := QuantileCISample(smp, p, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("p=%g: QuantileCI %v != QuantileCISample %v", p, a, b)
		}
	}
	a, err := MedianCI(xs, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MedianCISample(smp, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("MedianCI %v != MedianCISample %v", a, b)
	}

	// The mean CI's moments come from Welford rather than the two-pass
	// formulas: equal to within floating-point noise.
	am, err := MeanCI(xs, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	bm, err := MeanCISample(smp, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]float64{{am.Lo, bm.Lo}, {am.Hi, bm.Hi}, {am.Center, bm.Center}} {
		if d := math.Abs(pair[0] - pair[1]); d > 1e-9*math.Abs(pair[0]) {
			t.Errorf("MeanCI %v vs MeanCISample %v differ beyond fp noise", am, bm)
			break
		}
	}

	// Error cases must match the slice variants' thresholds: n < 2 for
	// the mean, n < 6 for the rank-based quantile.
	if _, err := MeanCISample(stats.NewSample(xs[:1]), 0.95); err != ErrTooFewSamples {
		t.Errorf("MeanCISample n=1: err = %v", err)
	}
	if _, err := QuantileCISample(stats.NewSample(xs[:5]), 0.5, 0.95); err != ErrTooFewSamples {
		t.Errorf("QuantileCISample n=5: err = %v", err)
	}
}

func TestQuantileCIHist(t *testing.T) {
	// Against the raw-sample interval on identical data: the histogram
	// interval must agree up to the bucket quantization (≤1/64 relative
	// on interior ranks, exact at the extremes).
	rng := rand.New(rand.NewPCG(13, 17))
	n := 20000
	xs := make([]float64, n)
	var h stats.LogHistogram
	for i := range xs {
		xs[i] = 1e-3 * math.Exp(0.5*rng.NormFloat64())
		h.Record(xs[i])
	}
	for _, p := range []float64{0.5, 0.99, 0.999} {
		exact, err := QuantileCI(xs, p, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		got, err := QuantileCIHist(&h, p, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		for _, pair := range [][2]float64{
			{got.Lo, exact.Lo}, {got.Hi, exact.Hi}, {got.Center, exact.Center},
		} {
			if rel := math.Abs(pair[0]-pair[1]) / pair[1]; rel > 1.0/64+1e-9 {
				t.Errorf("p=%g: hist endpoint %g vs exact %g (rel err %.4f)", p, pair[0], pair[1], rel)
			}
		}
		if got.Lo > got.Center || got.Center > got.Hi {
			t.Errorf("p=%g: interval %v not bracketing its center", p, got)
		}
	}

	// Validation must mirror the raw-sample constructor.
	if _, err := QuantileCIHist(&h, 0, 0.95); err == nil {
		t.Error("p=0 accepted")
	}
	if _, err := QuantileCIHist(&h, 0.5, 1); err != ErrConfidence {
		t.Errorf("confidence=1: err = %v", err)
	}
	var small stats.LogHistogram
	for i := 0; i < 5; i++ {
		small.Record(float64(i + 1))
	}
	if _, err := QuantileCIHist(&small, 0.5, 0.95); err != ErrTooFewSamples {
		t.Errorf("n=5: err = %v", err)
	}
}
