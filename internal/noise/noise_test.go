package noise

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/stats"
)

func sample(m Model, n int, base time.Duration, seed uint64) []float64 {
	rng := rand.New(rand.NewPCG(seed, seed+1))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(m.Perturb(rng, time.Duration(i)*time.Millisecond, base))
	}
	return xs
}

func TestNoneIsIdentity(t *testing.T) {
	xs := sample(None{}, 100, time.Microsecond, 1)
	for _, x := range xs {
		if x != float64(time.Microsecond) {
			t.Fatalf("None perturbed %v", x)
		}
	}
}

func TestGaussianStaysPositiveAndCentered(t *testing.T) {
	xs := sample(Gaussian{Rel: 0.1}, 20000, time.Microsecond, 2)
	for _, x := range xs {
		if x <= 0 {
			t.Fatal("non-positive duration")
		}
	}
	mean := stats.Mean(xs)
	if math.Abs(mean/float64(time.Microsecond)-1) > 0.01 {
		t.Errorf("Gaussian mean ratio = %g, want ≈1", mean/float64(time.Microsecond))
	}
}

func TestLogNormalRightSkewed(t *testing.T) {
	xs := sample(LogNormal{Sigma: 0.5}, 50000, time.Microsecond, 3)
	if stats.Skewness(xs) <= 0 {
		t.Errorf("log-normal noise skewness = %g, want > 0", stats.Skewness(xs))
	}
	if stats.Mean(xs) <= stats.Median(xs) {
		t.Error("log-normal noise should have mean > median")
	}
	// Mean slowdown is exp(σ²/2) ≈ 1.133.
	ratio := stats.Mean(xs) / float64(time.Microsecond)
	if math.Abs(ratio-math.Exp(0.125)) > 0.02 {
		t.Errorf("mean slowdown = %g, want ≈ %g", ratio, math.Exp(0.125))
	}
}

func TestParetoTailFrequencyAndSeverity(t *testing.T) {
	m := ParetoTail{Prob: 0.05, Scale: 10 * time.Microsecond, Alpha: 2}
	xs := sample(m, 50000, time.Microsecond, 4)
	base := float64(time.Microsecond)
	hit := 0
	for _, x := range xs {
		if x > base {
			hit++
			if x < base+float64(10*time.Microsecond) {
				t.Fatalf("tail hit below Scale: %g", x)
			}
		}
	}
	frac := float64(hit) / float64(len(xs))
	if math.Abs(frac-0.05) > 0.01 {
		t.Errorf("tail frequency = %g, want ≈0.05", frac)
	}
}

func TestPeriodicWindows(t *testing.T) {
	m := Periodic{Period: time.Millisecond, Window: 100 * time.Microsecond}
	rng := rand.New(rand.NewPCG(5, 5))
	// Event at phase 0: delayed by the full window.
	d := m.Perturb(rng, 0, time.Microsecond)
	if d != time.Microsecond+100*time.Microsecond {
		t.Errorf("at window start: %v", d)
	}
	// Event mid-window: delayed by the remainder.
	d = m.Perturb(rng, 40*time.Microsecond, time.Microsecond)
	if d != time.Microsecond+60*time.Microsecond {
		t.Errorf("mid-window: %v", d)
	}
	// Event outside the window: untouched.
	d = m.Perturb(rng, 500*time.Microsecond, time.Microsecond)
	if d != time.Microsecond {
		t.Errorf("outside window: %v", d)
	}
	// Next period hits again.
	d = m.Perturb(rng, time.Millisecond, time.Microsecond)
	if d != time.Microsecond+100*time.Microsecond {
		t.Errorf("next period: %v", d)
	}
	// Degenerate config is identity.
	if got := (Periodic{}).Perturb(rng, 0, time.Microsecond); got != time.Microsecond {
		t.Error("zero Periodic should be identity")
	}
}

func TestMixtureIsMultimodal(t *testing.T) {
	m := Mixture{
		Models:  []Model{Shift{Delta: 0}, Shift{Delta: 50 * time.Microsecond}},
		Weights: []float64{0.7, 0.3},
	}
	xs := sample(m, 20000, time.Microsecond, 6)
	lo, hi := 0, 0
	for _, x := range xs {
		if x == float64(time.Microsecond) {
			lo++
		} else if x == float64(51*time.Microsecond) {
			hi++
		} else {
			t.Fatalf("unexpected value %g", x)
		}
	}
	fhi := float64(hi) / float64(len(xs))
	if math.Abs(fhi-0.3) > 0.02 {
		t.Errorf("second mode frequency = %g, want ≈0.3", fhi)
	}
}

func TestMixtureEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	if got := (Mixture{}).Perturb(rng, 0, time.Second); got != time.Second {
		t.Error("empty mixture should be identity")
	}
	// Zero weights fall back to the first model.
	m := Mixture{Models: []Model{Shift{Delta: time.Second}}, Weights: []float64{0}}
	if got := m.Perturb(rng, 0, 0); got != time.Second {
		t.Error("zero-weight mixture should use first model")
	}
}

func TestStackComposes(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	s := Stack{Shift{Delta: time.Microsecond}, Shift{Delta: 2 * time.Microsecond}}
	if got := s.Perturb(rng, 0, time.Microsecond); got != 4*time.Microsecond {
		t.Errorf("stacked shifts = %v, want 4µs", got)
	}
}

func TestOnceWarmup(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	o := &Once{Inner: Shift{Delta: time.Millisecond}, Count: 2}
	if o.Perturb(rng, 0, time.Microsecond) != time.Microsecond+time.Millisecond {
		t.Error("first event should be shifted")
	}
	if o.Perturb(rng, 0, time.Microsecond) != time.Microsecond+time.Millisecond {
		t.Error("second event should be shifted")
	}
	if o.Perturb(rng, 0, time.Microsecond) != time.Microsecond {
		t.Error("third event should be clean")
	}
	o.Reset()
	if o.Perturb(rng, 0, time.Microsecond) != time.Microsecond+time.Millisecond {
		t.Error("Reset should re-arm the warmup")
	}
}

// TestSystemNoiseComposition stacks the three components of a system's
// noise — log-normal body, heavy tail, periodic OS jitter — and checks
// the composite never yields a non-positive duration.
func TestSystemNoiseComposition(t *testing.T) {
	m := Stack{
		LogNormal{Sigma: 0.01},
		ParetoTail{Prob: 0.001, Scale: time.Microsecond, Alpha: 2},
		Periodic{Period: time.Millisecond, Window: 10 * time.Microsecond},
	}
	xs := sample(m, 10000, 100*time.Microsecond, 10)
	if stats.Min(xs) <= 0 {
		t.Error("noise produced non-positive durations")
	}
}

func TestDeterministicUnderSeed(t *testing.T) {
	m := Stack{LogNormal{Sigma: 0.02}, ParetoTail{Prob: 0.01, Scale: time.Microsecond, Alpha: 2}}
	a := sample(m, 1000, time.Microsecond, 42)
	b := sample(m, 1000, time.Microsecond, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different noise")
		}
	}
}
