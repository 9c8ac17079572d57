package ci

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/dist"
)

// fullConformance widens TestRatioCIConformance from the short grid
// tier-1 runs to the full one (make conformance).
var fullConformance = flag.Bool("conformance", false, "run the full RatioCI coverage grid")

// ratioDraw is one cell's data model: n positive costs whose median is
// scale times the family's median, so cand/base has a known true ratio.
type ratioDraw struct {
	name string
	draw func(rng *rand.Rand, n int, scale float64) []float64
}

func logNormalDraw(sigma float64) ratioDraw {
	return ratioDraw{fmt.Sprintf("lognormal σ=%g", sigma), func(rng *rand.Rand, n int, scale float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = scale * 100 * math.Exp(sigma*rng.NormFloat64())
		}
		return xs
	}}
}

// quantizedDraw models a coarse timer: log-normal costs rounded to a
// tick of q (at least one tick), then scaled, so both samples hold many
// ties while the ratio of the two distributions stays exactly scale.
func quantizedDraw(sigma, q float64) ratioDraw {
	return ratioDraw{fmt.Sprintf("quantized σ=%g tick=%g", sigma, q), func(rng *rand.Rand, n int, scale float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = scale * q * math.Max(1, math.Round(100*math.Exp(sigma*rng.NormFloat64())/q))
		}
		return xs
	}}
}

// ratioCoverage returns the share of trials whose interval covers the
// true ratio, over seeded draws of m baseline and n candidate costs.
func ratioCoverage(t *testing.T, d ratioDraw, m, n int, ratio, confidence float64, trials int, seed uint64) float64 {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, uint64(m*1000+n)))
	hits := 0
	for range trials {
		iv, err := RatioCI(d.draw(rng, m, 1), d.draw(rng, n, ratio), confidence)
		if err != nil {
			t.Fatalf("%s %dx%d: %v", d.name, m, n, err)
		}
		// Ties put an end exactly on the true ratio, up to the rounding
		// of log and exp; count such an end as covering it.
		if iv.Lo <= ratio*(1+1e-12) && iv.Hi >= ratio*(1-1e-12) {
			hits++
		}
	}
	return float64(hits) / float64(trials)
}

// TestRatioCIConformance is the ratio interval's row of the coverage
// table: seeded Monte Carlo over log-normal costs of small to large
// spread and a tick-quantized (tied) family, at the sizes the
// regression gate sees (5 runs a side) up to 30×30, with a true ratio
// of 1.1. Every cell must cover at least nominal minus two binomial
// standard errors. An A/A control (same distribution both sides) must
// cover 1 at nominal, so the interval vanishes onto no effect when
// there is none.
//
// The full grid has 160 cells at 4000 trials each; at two standard
// errors a few of them would fall short by chance alone (a 100×100
// cell read 0.942 against a floor of 0.943, and 0.951 over 60000
// trials), so there the floor is Bonferroni-adjusted to keep the
// grid's chance of a false failure at 5%.
func TestRatioCIConformance(t *testing.T) {
	const confidence = 0.95
	trials, z := 400, 2.0
	draws := []ratioDraw{logNormalDraw(0.05), logNormalDraw(0.3), logNormalDraw(1), quantizedDraw(0.3, 20)}
	sizes := [][2]int{{4, 4}, {5, 4}, {5, 5}, {10, 10}, {30, 30}}
	if *fullConformance {
		draws = append(draws, logNormalDraw(0.1), logNormalDraw(0.6), quantizedDraw(0.1, 5), quantizedDraw(1, 25))
		sizes = append(sizes, [2]int{6, 6}, [2]int{8, 5}, [2]int{20, 20}, [2]int{50, 40}, [2]int{100, 100})
		trials = 4000
		z = dist.NormalQuantile(1 - 0.05/float64(2*len(draws)*len(sizes)))
	}
	floor := confidence - z*math.Sqrt(confidence*(1-confidence)/float64(trials))
	for di, d := range draws {
		for _, sz := range sizes {
			m, n := sz[0], sz[1]
			for ri, ratio := range []float64{1.1, 1} {
				cov := ratioCoverage(t, d, m, n, ratio, confidence, trials, uint64(2*di+ri+1))
				t.Logf("%-24s %3dx%-3d ratio %.1f: coverage %.3f", d.name, m, n, ratio, cov)
				if cov < floor {
					t.Errorf("%s %dx%d ratio %g: coverage %.3f below %.3f (nominal %.2f − %.2f SE over %d trials)",
						d.name, m, n, ratio, cov, floor, confidence, z, trials)
				}
			}
		}
	}
}

// TestRatioCIKnownValues pins the interval's arithmetic on samples
// whose pairwise log differences are easy to list by hand.
func TestRatioCIKnownValues(t *testing.T) {
	// Identical samples: the differences are symmetric about 0, so the
	// Hodges–Lehmann ratio is exactly 1 and the interval brackets it.
	xs := []float64{90, 95, 100, 105, 110}
	iv, err := RatioCI(xs, xs, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Center != 1 || !(iv.Lo < 1 && iv.Hi > 1) || iv.Confidence != 0.95 {
		t.Errorf("A/A interval %v, want center exactly 1 inside (lo, hi)", iv)
	}
	// A pure scaling moves every bound by the same factor.
	scaled := make([]float64, len(xs))
	for i, x := range xs {
		scaled[i] = 2 * x
	}
	iv2, err := RatioCI(xs, scaled, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range [][2]float64{{iv2.Center, 2 * iv.Center}, {iv2.Lo, 2 * iv.Lo}, {iv2.Hi, 2 * iv.Hi}} {
		if math.Abs(p[0]/p[1]-1) > 1e-12 {
			t.Errorf("scaled interval %v is not 2× %v", iv2, iv)
		}
	}
	// 5 vs 5 at 95%: k = ⌊12.5 − 1.96·√(25·11/12)⌋ = 3, so the ends are
	// the 3rd smallest and 3rd largest of the 25 ratios.
	base := []float64{1, 2, 4, 8, 16}
	cand := []float64{1, 2, 4, 8, 16}
	var ratios []float64
	for _, c := range cand {
		for _, b := range base {
			ratios = append(ratios, math.Log(c)-math.Log(b))
		}
	}
	slices.Sort(ratios)
	iv3, err := RatioCI(base, cand, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if iv3.Lo != math.Exp(ratios[2]) || iv3.Hi != math.Exp(ratios[22]) {
		t.Errorf("5x5 ends [%g, %g], want the 3rd order statistics [%g, %g]",
			iv3.Lo, iv3.Hi, math.Exp(ratios[2]), math.Exp(ratios[22]))
	}
}

func TestRatioCIErrors(t *testing.T) {
	three := []float64{1, 2, 3}
	if _, err := RatioCI(three, three, 0.95); !errors.Is(err, ErrTooFewSamples) {
		t.Errorf("3x3 at 95%%: err = %v, want ErrTooFewSamples (k < 1)", err)
	}
	if _, err := RatioCI(nil, three, 0.95); !errors.Is(err, ErrTooFewSamples) {
		t.Errorf("empty baseline: err = %v, want ErrTooFewSamples", err)
	}
	four := []float64{1, 2, 3, 4}
	if _, err := RatioCI(four, four, 0.95); err != nil {
		t.Errorf("4x4 at 95%% has k = 1: %v", err)
	}
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		xs := []float64{1, 2, 3, 4, bad}
		if _, err := RatioCI(xs, four, 0.95); err == nil || errors.Is(err, ErrTooFewSamples) {
			t.Errorf("baseline holding %g: err = %v, want a bad-sample error", bad, err)
		}
		if _, err := RatioCI(four, xs, 0.95); err == nil || errors.Is(err, ErrTooFewSamples) {
			t.Errorf("candidate holding %g: err = %v, want a bad-sample error", bad, err)
		}
	}
	for _, c := range []float64{0, 1, -0.5, math.NaN()} {
		if _, err := RatioCI(four, four, c); !errors.Is(err, ErrConfidence) {
			t.Errorf("confidence %g: err = %v, want ErrConfidence", c, err)
		}
	}
}

// TestPairDiffRankMatchesBruteForce checks the counting selection
// against sorting all m·n differences, at every rank, on random
// samples with and without ties and of unequal sizes.
func TestPairDiffRankMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for trial := range 300 {
		m, n := 1+rng.IntN(40), 1+rng.IntN(40)
		a, b := make([]float64, m), make([]float64, n)
		tied := trial%3 == 0
		for i := range a {
			a[i] = rng.NormFloat64()
			if tied {
				a[i] = math.Round(4 * a[i])
			}
		}
		for j := range b {
			b[j] = rng.NormFloat64() + 0.5
			if tied {
				b[j] = math.Round(4 * b[j])
			}
		}
		slices.Sort(a)
		slices.Sort(b)
		all := make([]float64, 0, m*n)
		for _, x := range a {
			for _, y := range b {
				all = append(all, y-x)
			}
		}
		slices.Sort(all)
		for r := range all {
			if got := pairDiffRank(a, b, int64(r+1)); got != all[r] {
				t.Fatalf("trial %d (%dx%d, tied %v): rank %d = %g, want %g", trial, m, n, tied, r+1, got, all[r])
			}
		}
	}
}
