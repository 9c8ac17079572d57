package dist

import (
	"math"
	"testing"
	"testing/quick"
)

func absDiff(a, b float64) float64 { return math.Abs(a - b) }

// closeTo fails unless got is within tol of want.
func closeTo(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.IsNaN(got) != math.IsNaN(want) {
		t.Fatalf("%s = %v, want %v", name, got, want)
	}
	if math.IsNaN(want) {
		return
	}
	if absDiff(got, want) > tol {
		t.Errorf("%s = %.12g, want %.12g (|diff| = %.3g > tol %.3g)",
			name, got, want, absDiff(got, want), tol)
	}
}

func TestLnGamma(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{1, 0},
		{2, 0},
		{3, math.Log(2)},
		{4, math.Log(6)},
		{0.5, math.Log(math.Sqrt(math.Pi))},
		{10, math.Log(362880)},
	}
	for _, c := range cases {
		closeTo(t, "LnGamma", LnGamma(c.x), c.want, 1e-12*math.Max(1, math.Abs(c.want)))
	}
}

func TestGammaPAgainstExponential(t *testing.T) {
	// P(1, x) = 1 - exp(-x).
	for _, x := range []float64{0.01, 0.5, 1, 2, 5, 10, 30} {
		closeTo(t, "GammaP(1,x)", GammaP(1, x), 1-math.Exp(-x), 1e-12)
	}
}

func TestGammaPKnownValues(t *testing.T) {
	// Reference values computed with R's pgamma(x, shape=a).
	// Reference values: pgamma(x, shape=a) in R.
	cases := []struct{ a, x, want float64 }{
		{0.5, 0.5, 0.6826894921370859}, // P(0.5, z²/2) = 2Φ(z)-1 with z = 1
		{2, 1, 0.2642411176571153},
		{2, 3, 0.8008517265285442},
		{5, 5, 0.5595067149347875},
	}
	for _, c := range cases {
		closeTo(t, "GammaP", GammaP(c.a, c.x), c.want, 1e-10)
	}
}

func TestGammaPComplement(t *testing.T) {
	for _, a := range []float64{0.3, 1, 2.5, 7, 20, 100} {
		for _, x := range []float64{0.1, 1, 5, 20, 150} {
			if p := GammaP(a, x); p < 0 || p > 1 {
				t.Errorf("GammaP(%g,%g) = %g outside [0,1]", a, x, p)
			}
		}
		// GammaP switches from the series for P to the continued
		// fraction for Q = 1 − P at x = a+1; at the switch both converge,
		// and they must sum to one.
		x := a + 1
		closeTo(t, "P+Q", gammaPSeries(a, x)+gammaQContinuedFraction(a, x), 1, 1e-10)
	}
}

func TestGammaPInvRoundTrip(t *testing.T) {
	for _, a := range []float64{0.4, 1, 2, 5.5, 30, 200} {
		for _, p := range []float64{1e-6, 0.01, 0.1, 0.5, 0.9, 0.99, 1 - 1e-6} {
			x := GammaPInv(a, p)
			back := GammaP(a, x)
			closeTo(t, "GammaP(GammaPInv)", back, p, 1e-8)
		}
	}
}

func TestBetaIncSymmetry(t *testing.T) {
	// I_x(a,b) = 1 - I_{1-x}(b,a).
	for _, a := range []float64{0.5, 1, 2, 8} {
		for _, b := range []float64{0.5, 1, 3, 12} {
			for _, x := range []float64{0.05, 0.3, 0.5, 0.77, 0.99} {
				lhs := BetaInc(a, b, x)
				rhs := 1 - BetaInc(b, a, 1-x)
				closeTo(t, "BetaInc symmetry", lhs, rhs, 1e-10)
			}
		}
	}
}

func TestBetaIncKnownValues(t *testing.T) {
	cases := []struct{ a, b, x, want float64 }{
		{1, 1, 0.3, 0.3},     // uniform
		{2, 2, 0.5, 0.5},     // symmetric
		{2, 1, 0.5, 0.25},    // I_x(2,1) = x²
		{1, 2, 0.5, 0.75},    // I_x(1,2) = 1-(1-x)²
		{0.5, 0.5, 0.5, 0.5}, // arcsine distribution median
	}
	for _, c := range cases {
		closeTo(t, "BetaInc", BetaInc(c.a, c.b, c.x), c.want, 1e-9)
	}
}

// binomialTail computes P(X >= a) for X ~ Binomial(n, x) exactly, which by
// a classic identity equals I_x(a, n-a+1). This gives an independent exact
// reference for BetaInc at integer parameters.
func binomialTail(n, a int, x float64) float64 {
	sum := 0.0
	for k := a; k <= n; k++ {
		// C(n,k) via lgamma for stability.
		lc := LnGamma(float64(n+1)) - LnGamma(float64(k+1)) - LnGamma(float64(n-k+1))
		sum += math.Exp(lc + float64(k)*math.Log(x) + float64(n-k)*math.Log(1-x))
	}
	return sum
}

func TestBetaIncBinomialIdentity(t *testing.T) {
	cases := []struct{ a, b int }{
		{5, 3}, {10, 10}, {2, 7}, {1, 12}, {20, 4},
	}
	for _, c := range cases {
		for _, x := range []float64{0.1, 0.4, 0.6, 0.9} {
			n := c.a + c.b - 1
			want := binomialTail(n, c.a, x)
			got := BetaInc(float64(c.a), float64(c.b), x)
			closeTo(t, "BetaInc vs binomial tail", got, want, 1e-10)
		}
	}
}

func TestBetaIncInvRoundTrip(t *testing.T) {
	for _, a := range []float64{0.5, 1, 2, 7.5, 40} {
		for _, b := range []float64{0.5, 1.5, 3, 25} {
			for _, p := range []float64{1e-5, 0.01, 0.25, 0.5, 0.75, 0.99, 1 - 1e-5} {
				x := BetaIncInv(a, b, p)
				if x < 0 || x > 1 {
					t.Fatalf("BetaIncInv(%g,%g,%g) = %g outside [0,1]", a, b, p, x)
				}
				closeTo(t, "BetaInc(BetaIncInv)", BetaInc(a, b, x), p, 1e-7)
			}
		}
	}
}

func TestNormalQuantileKnownValues(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.8413447460685429, 1}, // Φ(1)
		{0.975, 1.959963984540054},
		{0.995, 2.5758293035489004},
		{0.05, -1.6448536269514722},
		{0.01, -2.3263478740408408},
		{1e-10, -6.361340902404056},
	}
	for _, c := range cases {
		closeTo(t, "NormalQuantile", NormalQuantile(c.p), c.want, 1e-9)
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	f := func(raw float64) bool {
		p := math.Abs(math.Mod(raw, 1))
		if p == 0 || p == 1 || math.IsNaN(p) {
			return true
		}
		z := NormalQuantile(p)
		return absDiff(NormalCDF(z), p) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestNormalCDFSymmetry(t *testing.T) {
	for _, z := range []float64{0, 0.5, 1, 2, 5, 8} {
		closeTo(t, "Φ(z)+Φ(-z)", NormalCDF(z)+NormalCDF(-z), 1, 1e-12)
	}
}

func TestDomainErrors(t *testing.T) {
	if !math.IsNaN(GammaP(-1, 1)) {
		t.Error("GammaP(-1,1) should be NaN")
	}
	if !math.IsNaN(GammaP(1, -1)) {
		t.Error("GammaP(1,-1) should be NaN")
	}
	if !math.IsNaN(BetaInc(0, 1, 0.5)) {
		t.Error("BetaInc(0,1,·) should be NaN")
	}
	if !math.IsNaN(BetaInc(1, 1, 1.5)) {
		t.Error("BetaInc(·,·,1.5) should be NaN")
	}
	if !math.IsNaN(NormalQuantile(-0.1)) {
		t.Error("NormalQuantile(-0.1) should be NaN")
	}
	if !math.IsNaN(NormalQuantile(1.1)) {
		t.Error("NormalQuantile(1.1) should be NaN")
	}
	if !math.IsInf(NormalQuantile(0), -1) {
		t.Error("NormalQuantile(0) should be -Inf")
	}
	if !math.IsInf(NormalQuantile(1), 1) {
		t.Error("NormalQuantile(1) should be +Inf")
	}
}
