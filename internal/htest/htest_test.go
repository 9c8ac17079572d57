package htest

import (
	"math"
	"math/rand/v2"
	"testing"
)

func closeTo(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.IsNaN(got) != math.IsNaN(want) || math.Abs(got-want) > tol {
		t.Errorf("%s = %.10g, want %.10g", name, got, want)
	}
}

func normalSample(n int, mu, sigma float64, seed uint64) []float64 {
	rng := rand.New(rand.NewPCG(seed, seed^0xdead))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = mu + sigma*rng.NormFloat64()
	}
	return xs
}

func lognormalSample(n int, mu, sigma float64, seed uint64) []float64 {
	rng := rand.New(rand.NewPCG(seed, seed^0xbeef))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Exp(mu + sigma*rng.NormFloat64())
	}
	return xs
}

func TestShapiroWilkSymmetricTriple(t *testing.T) {
	// Equally spaced n=3 is a perfect fit: W = 1, p = 1 exactly
	// under Royston's n=3 formula.
	res, err := ShapiroWilk([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	closeTo(t, "W", res.Stat, 1, 1e-9)
	closeTo(t, "p", res.P, 1, 1e-6)
}

func TestShapiroWilkAcceptsNormal(t *testing.T) {
	// Across many normal samples, the test should rarely reject.
	rejected := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		xs := normalSample(80, 5, 2, uint64(i+1))
		res, err := ShapiroWilk(xs)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stat < 0.8 || res.Stat > 1 {
			t.Fatalf("W = %g outside plausible range for normal data", res.Stat)
		}
		if res.Significant(0.05) {
			rejected++
		}
	}
	// Nominal rejection rate is 5%; allow generous slack.
	if rejected > trials/5 {
		t.Errorf("rejected %d/%d normal samples at alpha=0.05", rejected, trials)
	}
}

func TestShapiroWilkRejectsSkewed(t *testing.T) {
	rejected := 0
	const trials = 50
	for i := 0; i < trials; i++ {
		xs := lognormalSample(100, 0, 1, uint64(i+1))
		res, err := ShapiroWilk(xs)
		if err != nil {
			t.Fatal(err)
		}
		if res.Significant(0.01) {
			rejected++
		}
	}
	if rejected < trials*9/10 {
		t.Errorf("only %d/%d log-normal samples rejected; test has no power", rejected, trials)
	}
}

func TestShapiroWilkPValueRange(t *testing.T) {
	for _, n := range []int{3, 4, 7, 11, 12, 50, 500, 4999} {
		xs := normalSample(n, 0, 1, uint64(n))
		res, err := ShapiroWilk(xs)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if res.P < 0 || res.P > 1 || math.IsNaN(res.P) {
			t.Errorf("n=%d: p = %g outside [0,1]", n, res.P)
		}
		if res.Stat <= 0 || res.Stat > 1 {
			t.Errorf("n=%d: W = %g outside (0,1]", n, res.Stat)
		}
	}
}

func TestShapiroWilkErrors(t *testing.T) {
	if _, err := ShapiroWilk([]float64{1, 2}); err != ErrSampleSize {
		t.Errorf("n=2: err = %v", err)
	}
	if _, err := ShapiroWilk(make([]float64, 5001)); err != ErrSampleSize {
		t.Errorf("n=5001: err = %v", err)
	}
	if _, err := ShapiroWilk([]float64{4, 4, 4, 4}); err != ErrConstant {
		t.Errorf("constant: err = %v", err)
	}
}

func TestTTestPooledKnownValue(t *testing.T) {
	// Hand-computed: means 3 and 4, pooled variance 2.5,
	// t = −1/√(2.5·(1/5+1/5)) = −1, df = 8, p = 2·P(T₈ < −1) ≈ 0.34659.
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 3, 4, 5, 6}
	res, err := TTest(xs, ys, false)
	if err != nil {
		t.Fatal(err)
	}
	closeTo(t, "t", res.Stat, -1, 1e-12)
	closeTo(t, "p", res.P, 0.34659350708733416, 1e-6)
}

func TestTTestWelchEqualsPooledForEqualVariance(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 3, 4, 5, 6}
	pooled, _ := TTest(xs, ys, false)
	welch, _ := TTest(xs, ys, true)
	closeTo(t, "stat match", welch.Stat, pooled.Stat, 1e-12)
	// Same variance and size → same df → same p.
	closeTo(t, "p match", welch.P, pooled.P, 1e-9)
}

func TestTTestDetectsShift(t *testing.T) {
	xs := normalSample(100, 10, 1, 1)
	ys := normalSample(100, 11, 1, 2)
	res, err := TTest(xs, ys, true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Significant(0.001) {
		t.Errorf("1σ shift with n=100 not detected: %v", res)
	}
}

func TestTTestErrors(t *testing.T) {
	if _, err := TTest([]float64{1}, []float64{1, 2}, true); err != ErrSampleSize {
		t.Errorf("err = %v", err)
	}
	if _, err := TTest([]float64{2, 2}, []float64{3, 3}, true); err != ErrConstant {
		t.Errorf("constant err = %v", err)
	}
}

func TestANOVAKnownValue(t *testing.T) {
	// Hand-computed: groups {1,2,3},{2,3,4},{3,4,5}: F = 3,
	// and for F(2,6): P(F > 3) = (1+3/3)⁻³ = 0.125 exactly.
	res, err := OneWayANOVA(
		[]float64{1, 2, 3},
		[]float64{2, 3, 4},
		[]float64{3, 4, 5},
	)
	if err != nil {
		t.Fatal(err)
	}
	closeTo(t, "F", res.Stat, 3, 1e-12)
	closeTo(t, "p", res.P, 0.125, 1e-9)
	closeTo(t, "egv", res.EGV, 3, 1e-12)
	closeTo(t, "igv", res.IGV, 1, 1e-12)
	if res.DFB != 2 || res.DFW != 6 {
		t.Errorf("df = (%d, %d), want (2, 6)", res.DFB, res.DFW)
	}
	// F must not exceed the 5% critical value here (p = 0.125).
	if res.Stat > res.FCrit05 {
		t.Errorf("F = %g exceeds crit %g but p = 0.125", res.Stat, res.FCrit05)
	}
}

func TestANOVANullUniformP(t *testing.T) {
	// Under the null, p-values should not be systematically tiny.
	small := 0
	for i := 0; i < 100; i++ {
		a := normalSample(30, 5, 1, uint64(3*i+1))
		b := normalSample(30, 5, 1, uint64(3*i+2))
		c := normalSample(30, 5, 1, uint64(3*i+3))
		res, err := OneWayANOVA(a, b, c)
		if err != nil {
			t.Fatal(err)
		}
		if res.P < 0.05 {
			small++
		}
	}
	if small > 20 {
		t.Errorf("%d/100 null ANOVAs significant at 0.05", small)
	}
}

func TestANOVADetectsDifference(t *testing.T) {
	a := normalSample(50, 10, 1, 11)
	b := normalSample(50, 10, 1, 12)
	c := normalSample(50, 12, 1, 13)
	res, err := OneWayANOVA(a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Significant(0.001) {
		t.Errorf("2σ group shift not detected: %v", res)
	}
}

func TestANOVAErrors(t *testing.T) {
	if _, err := OneWayANOVA([]float64{1, 2}); err != ErrGroups {
		t.Errorf("one group: err = %v", err)
	}
	if _, err := OneWayANOVA([]float64{1, 2}, []float64{3}); err != ErrGroups {
		t.Errorf("tiny group: err = %v", err)
	}
	if _, err := OneWayANOVA([]float64{1, 1}, []float64{1, 1}); err != ErrConstant {
		t.Errorf("constant: err = %v", err)
	}
}

func TestKruskalWallisKnownValue(t *testing.T) {
	// {1,2,3} vs {4,5,6}: rank sums 6 and 15,
	// H = 12/(6·7)·(36/3 + 225/3) − 3·7 = 27/7 ≈ 3.857.
	res, err := KruskalWallis([]float64{1, 2, 3}, []float64{4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	closeTo(t, "H", res.Stat, 27.0/7.0, 1e-12)
	// p = P(χ²₁ > 3.857) ≈ 0.0495.
	closeTo(t, "p", res.P, 0.04953461, 1e-6)
}

func TestKruskalWallisTies(t *testing.T) {
	// With ties the correction must keep H finite and the test sane.
	res, err := KruskalWallis(
		[]float64{1, 1, 2, 2, 3},
		[]float64{2, 3, 3, 4, 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.Stat) || res.P < 0 || res.P > 1 {
		t.Errorf("ties broke the test: %v", res)
	}
	// All-identical data across groups is degenerate.
	if _, err := KruskalWallis([]float64{5, 5}, []float64{5, 5}); err != ErrConstant {
		t.Errorf("all-ties: err = %v", err)
	}
}

func TestKruskalWallisDetectsMedianShiftInSkewedData(t *testing.T) {
	// The Fig 3 scenario: two overlapping skewed distributions whose
	// medians differ slightly but significantly.
	xs := lognormalSample(2000, 0.00, 0.4, 100)
	ys := lognormalSample(2000, 0.08, 0.4, 200)
	sig, res, err := CompareMedians(xs, ys, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !sig {
		t.Errorf("median shift not detected: %v", res)
	}
}

func TestKruskalWallisNull(t *testing.T) {
	small := 0
	for i := 0; i < 100; i++ {
		xs := lognormalSample(50, 0, 0.5, uint64(2*i+1))
		ys := lognormalSample(50, 0, 0.5, uint64(2*i+2))
		res, err := KruskalWallis(xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		if res.P < 0.05 {
			small++
		}
	}
	if small > 20 {
		t.Errorf("%d/100 null KW tests significant", small)
	}
}

func TestEffectSize(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 3, 4, 5, 6}
	e, err := EffectSize(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	// means differ by −1, pooled within-group variance 2.5 → E = −0.632.
	closeTo(t, "E", e, -1/math.Sqrt(2.5), 1e-12)
	if _, err := EffectSize([]float64{1}, ys); err == nil {
		t.Error("tiny sample should error")
	}
}

func TestIsPlausiblyNormal(t *testing.T) {
	if !IsPlausiblyNormal(normalSample(200, 3, 1, 77), 0.05) {
		t.Error("normal sample misclassified")
	}
	if IsPlausiblyNormal(lognormalSample(200, 0, 1, 78), 0.05) {
		t.Error("log-normal sample misclassified")
	}
	if IsPlausiblyNormal([]float64{1, 2}, 0.05) {
		t.Error("tiny sample cannot be classified normal")
	}
}

func TestTestResultHelpers(t *testing.T) {
	r := TestResult{Name: "t", Stat: 2.5, P: 0.01}
	if !r.Significant(0.05) || r.Significant(0.005) {
		t.Error("Significant threshold logic wrong")
	}
	if r.String() == "" {
		t.Error("empty String")
	}
}

func TestMeanDifferenceCI(t *testing.T) {
	xs := normalSample(200, 10, 1, 51)
	ys := normalSample(200, 11, 1, 52)
	lo, hi, err := MeanDifferenceCI(xs, ys, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if lo > 1 || hi < 1 {
		t.Errorf("CI [%g, %g] misses the true difference 1", lo, hi)
	}
	if lo <= 0 {
		t.Errorf("CI [%g, %g] should exclude 0 at n=200", lo, hi)
	}
	if _, _, err := MeanDifferenceCI([]float64{1}, ys, 0.95); err != ErrSampleSize {
		t.Error("tiny sample should error")
	}
	if _, _, err := MeanDifferenceCI([]float64{2, 2}, []float64{3, 3}, 0.95); err != ErrConstant {
		t.Error("constant samples should error")
	}
	// Invalid confidence falls back.
	lo2, hi2, err := MeanDifferenceCI(xs, ys, 5)
	if err != nil || lo2 >= hi2 {
		t.Errorf("fallback confidence: [%g, %g] %v", lo2, hi2, err)
	}
}
