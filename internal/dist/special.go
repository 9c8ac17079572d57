// Package dist implements the probability distributions and special
// functions needed for statistically sound benchmarking analysis:
// normal, log-normal, Student's t, chi-squared, Fisher's F, exponential,
// Pareto, and uniform distributions, each with PDF, CDF, quantile, moments,
// and random variate generation.
//
// Everything is implemented from scratch on top of the Go standard library
// (math, math/rand/v2); accuracy targets are around 1e-10 relative error in
// the central region and 1e-8 in the tails, which is far tighter than any
// benchmarking decision requires.
package dist

import "math"

// LnGamma returns the natural logarithm of the absolute value of the Gamma
// function. It is a thin, positively named wrapper over math.Lgamma that
// drops the sign (all callers in this package use positive arguments).
func LnGamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// GammaP computes the regularized lower incomplete gamma function
// P(a, x) = γ(a, x) / Γ(a) for a > 0, x >= 0.
//
// A series expansion is used for x < a+1 and a continued fraction for
// x >= a+1 (the classic Numerical Recipes split), giving fast convergence
// on both sides.
func GammaP(a, x float64) float64 {
	switch {
	case a <= 0 || x < 0 || math.IsNaN(a) || math.IsNaN(x):
		return math.NaN()
	case x == 0:
		return 0
	case math.IsInf(x, 1):
		return 1
	}
	if x < a+1 {
		return gammaPSeries(a, x)
	}
	return 1 - gammaQContinuedFraction(a, x)
}

const (
	specialEps     = 1e-15
	specialMaxIter = 500
	tinyFloat      = 1e-300
)

func gammaPSeries(a, x float64) float64 {
	ap := a
	sum := 1.0 / a
	del := sum
	for i := 0; i < specialMaxIter; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*specialEps {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-LnGamma(a))
}

func gammaQContinuedFraction(a, x float64) float64 {
	b := x + 1 - a
	c := 1 / tinyFloat
	d := 1 / b
	h := d
	for i := 1; i <= specialMaxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tinyFloat {
			d = tinyFloat
		}
		c = b + an/c
		if math.Abs(c) < tinyFloat {
			c = tinyFloat
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < specialEps {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-LnGamma(a)) * h
}

// GammaPInv returns x such that GammaP(a, x) = p, for a > 0 and p in [0, 1].
// It uses a Wilson–Hilferty style initial guess followed by Halley
// iterations (Numerical Recipes invgammp).
func GammaPInv(a, p float64) float64 {
	switch {
	case math.IsNaN(a) || math.IsNaN(p) || a <= 0 || p < 0 || p > 1:
		return math.NaN()
	case p == 0:
		return 0
	case p == 1:
		return math.Inf(1)
	}
	const eps = 1e-12
	gln := LnGamma(a)
	a1 := a - 1
	var lna1, afac float64
	if a > 1 {
		lna1 = math.Log(a1)
		afac = math.Exp(a1*(lna1-1) - gln)
	}

	var x float64
	if a > 1 {
		// Wilson–Hilferty approximation.
		pp := p
		if p >= 0.5 {
			pp = 1 - p
		}
		t := math.Sqrt(-2 * math.Log(pp))
		x = (2.30753 + t*0.27061) / (1 + t*(0.99229+t*0.04481))
		x -= t
		if p < 0.5 {
			x = -x
		}
		x = math.Max(1e-3, a*math.Pow(1-1/(9*a)-x/(3*math.Sqrt(a)), 3))
	} else {
		t := 1 - a*(0.253+a*0.12)
		if p < t {
			x = math.Pow(p/t, 1/a)
		} else {
			x = 1 - math.Log(1-(p-t)/(1-t))
		}
	}

	for j := 0; j < 24; j++ {
		if x <= 0 {
			return 0
		}
		err := GammaP(a, x) - p
		var t float64
		if a > 1 {
			t = afac * math.Exp(-(x-a1)+a1*(math.Log(x)-lna1))
		} else {
			t = math.Exp(-x + a1*math.Log(x) - gln)
		}
		u := err / t
		// Halley's method.
		t = u / (1 - 0.5*math.Min(1, u*(a1/x-1)))
		x -= t
		if x <= 0 {
			x = 0.5 * (x + t)
		}
		if math.Abs(t) < eps*x {
			break
		}
	}
	return x
}

// BetaInc computes the regularized incomplete beta function I_x(a, b) for
// a, b > 0 and x in [0, 1], using the Lentz continued-fraction evaluation.
func BetaInc(a, b, x float64) float64 {
	switch {
	case math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(x):
		return math.NaN()
	case a <= 0 || b <= 0 || x < 0 || x > 1:
		return math.NaN()
	case x == 0:
		return 0
	case x == 1:
		return 1
	}
	lbeta := LnGamma(a+b) - LnGamma(a) - LnGamma(b)
	front := math.Exp(lbeta + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func betaCF(a, b, x float64) float64 {
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tinyFloat {
		d = tinyFloat
	}
	d = 1 / d
	h := d
	for m := 1; m <= specialMaxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < tinyFloat {
			d = tinyFloat
		}
		c = 1 + aa/c
		if math.Abs(c) < tinyFloat {
			c = tinyFloat
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < tinyFloat {
			d = tinyFloat
		}
		c = 1 + aa/c
		if math.Abs(c) < tinyFloat {
			c = tinyFloat
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < specialEps {
			break
		}
	}
	return h
}

// BetaIncInv returns x such that BetaInc(a, b, x) = p. It starts from an
// approximate normal-based guess and polishes with Halley iterations.
func BetaIncInv(a, b, p float64) float64 {
	switch {
	case math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(p):
		return math.NaN()
	case a <= 0 || b <= 0 || p < 0 || p > 1:
		return math.NaN()
	case p == 0:
		return 0
	case p == 1:
		return 1
	}
	const eps = 1e-12
	var x float64
	a1 := a - 1
	b1 := b - 1
	if a >= 1 && b >= 1 {
		pp := p
		if p >= 0.5 {
			pp = 1 - p
		}
		t := math.Sqrt(-2 * math.Log(pp))
		x = (2.30753 + t*0.27061) / (1 + t*(0.99229+t*0.04481))
		x -= t
		if p < 0.5 {
			x = -x
		}
		al := (x*x - 3) / 6
		h := 2 / (1/(2*a-1) + 1/(2*b-1))
		w := x*math.Sqrt(al+h)/h -
			(1/(2*b-1)-1/(2*a-1))*(al+5.0/6.0-2/(3*h))
		x = a / (a + b*math.Exp(2*w))
	} else {
		lna := math.Log(a / (a + b))
		lnb := math.Log(b / (a + b))
		t := math.Exp(a*lna) / a
		u := math.Exp(b*lnb) / b
		w := t + u
		if p < t/w {
			x = math.Pow(a*w*p, 1/a)
		} else {
			x = 1 - math.Pow(b*w*(1-p), 1/b)
		}
	}
	afac := -LnGamma(a) - LnGamma(b) + LnGamma(a+b)
	for j := 0; j < 24; j++ {
		if x == 0 || x == 1 {
			return x
		}
		err := BetaInc(a, b, x) - p
		t := math.Exp(a1*math.Log(x) + b1*math.Log(1-x) + afac)
		u := err / t
		t = u / (1 - 0.5*math.Min(1, u*(a1/x-b1/(1-x))))
		x -= t
		if x <= 0 {
			x = 0.5 * (x + t)
		}
		if x >= 1 {
			x = 0.5 * (x + t + 1)
		}
		if math.Abs(t) < eps*x && j > 0 {
			break
		}
	}
	return x
}

// NormalCDF returns the standard normal cumulative distribution function
// Φ(z), computed via the complementary error function for full relative
// accuracy in both tails.
func NormalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// NormalPDF returns the standard normal density φ(z).
func NormalPDF(z float64) float64 {
	return math.Exp(-0.5*z*z) / math.Sqrt(2*math.Pi)
}

// NormalQuantile returns Φ⁻¹(p), the standard normal quantile function,
// using Acklam's rational approximation refined by one Halley step, which
// yields close to machine precision over (0, 1).
func NormalQuantile(p float64) float64 {
	switch {
	case math.IsNaN(p) || p < 0 || p > 1:
		return math.NaN()
	case p == 0:
		return math.Inf(-1)
	case p == 1:
		return math.Inf(1)
	}
	// Coefficients for Acklam's approximation.
	a := [6]float64{
		-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00,
	}
	b := [5]float64{
		-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01,
	}
	c := [6]float64{
		-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00,
	}
	d := [4]float64{
		7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00,
	}
	const plow = 0.02425
	var x float64
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-plow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley refinement step.
	e := NormalCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x -= u / (1 + x*u/2)
	return x
}
