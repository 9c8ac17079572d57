package bench

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/ci"
	"repro/internal/stats"
	"repro/internal/timer"
)

func TestRunFixedPlan(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	calls := 0
	res, err := Run(Plan{Warmup: 3, MinSamples: 20}, func() float64 {
		calls++
		return 10 + rng.NormFloat64()
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 23 {
		t.Errorf("calls = %d, want 23 (3 warmup + 20)", calls)
	}
	if res.WarmupDiscarded != 3 || res.Summary.N != 20 {
		t.Errorf("warmup=%d n=%d", res.WarmupDiscarded, res.Summary.N)
	}
	if res.Stop != StopFixed {
		t.Errorf("stop = %s", res.Stop)
	}
	if res.MeanCI.Lo >= res.MeanCI.Hi || res.MedianCI.Lo > res.MedianCI.Hi {
		t.Error("degenerate CIs")
	}
	if res.String() == "" {
		t.Error("empty String")
	}
}

func TestRunAdaptiveConverges(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	res, err := Run(Plan{
		MinSamples: 10,
		MaxSamples: 5000,
		RelErr:     0.05,
		BatchSize:  20,
	}, func() float64 {
		return math.Exp(0.3 * rng.NormFloat64())
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stop != StopConverged {
		t.Errorf("stop = %s, want converged", res.Stop)
	}
	if res.MedianCI.RelativeWidth() > 0.05 {
		t.Errorf("median CI rel width %g > 0.05", res.MedianCI.RelativeWidth())
	}
	if res.Summary.N >= 5000 {
		t.Error("used the whole budget yet claims convergence")
	}
}

func TestRunAdaptiveBudgetExhausted(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	res, err := Run(Plan{
		MinSamples: 10,
		MaxSamples: 60,
		RelErr:     0.0001, // unreachable with 60 noisy samples
	}, func() float64 {
		return math.Exp(2 * rng.NormFloat64())
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stop != StopMaxSamples {
		t.Errorf("stop = %s, want budget exhausted", res.Stop)
	}
	if res.Summary.N != 60 {
		t.Errorf("n = %d, want 60", res.Summary.N)
	}
}

func TestRunOutlierPolicy(t *testing.T) {
	i := 0
	vals := []float64{5, 5.1, 4.9, 5.2, 4.8, 5.0, 5.1, 4.9, 5.0, 500}
	res, err := Run(Plan{
		MinSamples: len(vals),
		Outliers:   OutlierPolicy{Remove: true},
	}, func() float64 {
		v := vals[i%len(vals)]
		i++
		return v
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OutliersRemoved != 1 {
		t.Errorf("outliers removed = %d, want 1", res.OutliersRemoved)
	}
	if res.Summary.Max > 6 {
		t.Error("outlier survived the policy")
	}
}

func TestRunDeterministicDetection(t *testing.T) {
	res, err := Run(Plan{MinSamples: 10}, func() float64 { return 42 })
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deterministic {
		t.Error("constant measurements should be flagged deterministic")
	}
	label, iv := res.PreferredCenter()
	if label != "mean" {
		t.Errorf("deterministic data should report the mean, got %s", label)
	}
	if iv.Center != 42 && !math.IsNaN(iv.Center) {
		// MeanCI fails on constant data (sd = 0 still yields an interval
		// of width 0 centered at 42).
		t.Errorf("center = %g", iv.Center)
	}
}

func TestRunNilMeasure(t *testing.T) {
	if _, err := Run(Plan{}, nil); err != ErrNoMeasure {
		t.Errorf("err = %v", err)
	}
}

func TestPreferredCenterSwitchesOnNormality(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	norm, err := Run(Plan{MinSamples: 100}, func() float64 { return 10 + rng.NormFloat64() })
	if err != nil {
		t.Fatal(err)
	}
	if label, _ := norm.PreferredCenter(); label != "mean" {
		t.Errorf("normal data prefers the mean, got %s", label)
	}
	skew, err := Run(Plan{MinSamples: 200}, func() float64 { return math.Exp(rng.NormFloat64()) })
	if err != nil {
		t.Fatal(err)
	}
	if label, _ := skew.PreferredCenter(); label != "median" {
		t.Errorf("skewed data prefers the median, got %s", label)
	}
	if skew.PlausiblyNormal {
		t.Error("log-normal sample misdiagnosed as normal")
	}
}

func TestAnalyzeExistingSample(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	xs := make([]float64, 50)
	for i := range xs {
		xs[i] = rng.NormFloat64()*2 + 30
	}
	res, err := Analyze(xs, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.N != 50 {
		t.Errorf("n = %d", res.Summary.N)
	}
	if res.MeanCI.Confidence != 0.99 {
		t.Errorf("confidence = %g", res.MeanCI.Confidence)
	}
	if _, err := Analyze([]float64{1}, 0.95); err == nil {
		t.Error("tiny sample should error")
	}
	// 0 selects 0.95, as in Plan; any other level outside (0, 1) is an
	// error, not a silent 95% interval.
	res2, err := Analyze(xs, 0)
	if err != nil || res2.MeanCI.Confidence != 0.95 {
		t.Errorf("default confidence: %g %v", res2.MeanCI.Confidence, err)
	}
	for _, c := range []float64{99, 1, -0.5, math.NaN()} {
		if _, err := Analyze(xs, c); !errors.Is(err, ci.ErrConfidence) {
			t.Errorf("Analyze(confidence %g): err = %v, want ci.ErrConfidence", c, err)
		}
	}
}

// TestRunNaNSampleTerminates runs a campaign whose measure returns one
// NaN. The change-point scan once spun forever on it, so Run runs under
// a deadline; it must return, and must not report a regime shift it
// cannot rank.
func TestRunNaNSampleTerminates(t *testing.T) {
	calls := 0
	measure := func() float64 {
		calls++
		if calls == 10 {
			return math.NaN()
		}
		return 1 + 0.01*float64(calls%5)
	}
	var res Result
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, err = Run(Plan{MinSamples: 20, MaxSamples: 20}, measure)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run with one NaN sample did not return within 5 s")
	}
	if err != nil {
		t.Fatal(err)
	}
	if res.ShiftDetected {
		t.Errorf("one NaN sample reported as a regime shift (p = %g)", res.ShiftP)
	}
}

func TestSummarizeAcrossProcessesHomogeneous(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 6))
	perProc := make([][]float64, 8)
	for p := range perProc {
		for i := 0; i < 50; i++ {
			perProc[p] = append(perProc[p], 100+rng.NormFloat64())
		}
	}
	cp, err := SummarizeAcrossProcesses(perProc, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if !cp.Homogeneous {
		t.Errorf("identical processes flagged heterogeneous: %v", cp.ANOVA)
	}
	if cp.Pooled.N != 400 {
		t.Errorf("pooled n = %d", cp.Pooled.N)
	}
}

func TestSummarizeAcrossProcessesDetectsSlowRank(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	perProc := make([][]float64, 8)
	for p := range perProc {
		shift := 0.0
		if p == 3 {
			shift = 5 // one systematically slow process (Fig 6)
		}
		for i := 0; i < 50; i++ {
			perProc[p] = append(perProc[p], 100+shift+rng.NormFloat64())
		}
	}
	cp, err := SummarizeAcrossProcesses(perProc, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Homogeneous {
		t.Error("slow rank not detected; pooling would be unsound")
	}
	if cp.MaxOfMeans < cp.MedianOfMeans+4 {
		t.Errorf("max of means %g should reflect the slow rank (median %g)",
			cp.MaxOfMeans, cp.MedianOfMeans)
	}
}

func TestSummarizeAcrossProcessesValidation(t *testing.T) {
	if _, err := SummarizeAcrossProcesses([][]float64{{1, 2}}, 0.05); err == nil {
		t.Error("one process should error")
	}
	if _, err := SummarizeAcrossProcesses([][]float64{{1, 2}, {3}}, 0.05); err == nil {
		t.Error("tiny process sample should error")
	}
	// All-constant processes: trivially homogeneous.
	cp, err := SummarizeAcrossProcesses([][]float64{{5, 5}, {5, 5}}, 0.05)
	if err != nil || !cp.Homogeneous {
		t.Errorf("constant processes: %v %v", cp.Homogeneous, err)
	}
}

func TestAdaptiveLevelsRefinesKink(t *testing.T) {
	// A piecewise function with a kink at 64: refinement should place
	// more levels around the kink than in the flat region.
	f := func(x int) float64 {
		if x < 64 {
			return 1
		}
		return float64(x)
	}
	levels, err := AdaptiveLevels(2, 128, 12, f)
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != 12 {
		t.Fatalf("levels = %d, want 12", len(levels))
	}
	// Sorted by X.
	nearKink := 0
	for i, l := range levels {
		if i > 0 && l.X <= levels[i-1].X {
			t.Fatal("levels not sorted/unique")
		}
		if l.X >= 48 && l.X <= 96 {
			nearKink++
		}
	}
	if nearKink < 4 {
		t.Errorf("only %d levels near the kink; refinement not adaptive", nearKink)
	}
}

func TestAdaptiveLevelsValidation(t *testing.T) {
	if _, err := AdaptiveLevels(5, 5, 10, func(int) float64 { return 0 }); err == nil {
		t.Error("empty range should error")
	}
	if _, err := AdaptiveLevels(0, 10, 10, nil); err != ErrNoMeasure {
		t.Error("nil measure should error")
	}
	// Budget larger than the number of integer levels terminates.
	levels, err := AdaptiveLevels(0, 4, 100, func(x int) float64 { return float64(x) })
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) > 5 {
		t.Errorf("more levels than integers in range: %d", len(levels))
	}
}

func TestPlanDefaults(t *testing.T) {
	p, err := Plan{}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if p.MinSamples != 10 || p.MaxSamples != 1000 || p.Confidence != 0.95 || p.BatchSize != 10 {
		t.Errorf("defaults = %+v", p)
	}
	p2, err := Plan{Outliers: OutlierPolicy{Remove: true}}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if p2.Outliers.TukeyK != 1.5 {
		t.Errorf("TukeyK default = %g", p2.Outliers.TukeyK)
	}
	p3, err := Plan{MinSamples: 50, MaxSamples: 20}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if p3.MaxSamples != 50 {
		t.Error("MaxSamples must be raised to MinSamples")
	}
	p4, err := Plan{MinSamples: 3}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if p4.MinSamples != 6 {
		t.Errorf("MinSamples %d, want raised to 6", p4.MinSamples)
	}
}

func TestPlanRejectsNonsense(t *testing.T) {
	bad := []Plan{
		{Warmup: -1},
		{MinSamples: -5},
		{MaxSamples: -1},
		{BatchSize: -2},
		{Confidence: 1.5},
		{Confidence: -0.5},
		{Confidence: math.NaN()},
		{RelErr: -0.1},
		{RelErr: math.NaN()},
		{RelErr: 1}, // a 100% relative error target is meaningless
		{EventsPerSample: -3},
		{Resilience: &Resilience{MaxRetries: -1}},
		{Resilience: &Resilience{MaxLossFraction: 1.5}},
		{Resilience: &Resilience{SampleTimeout: -time.Second}},
		{Resilience: &Resilience{ValueCeiling: -1}},
	}
	for i, p := range bad {
		if _, err := p.withDefaults(); !errors.Is(err, ErrBadPlan) {
			t.Errorf("plan %d: err = %v, want ErrBadPlan", i, err)
		}
		if _, err := Run(p, func() float64 { return 1 }); !errors.Is(err, ErrBadPlan) {
			t.Errorf("Run with plan %d: err = %v, want ErrBadPlan", i, err)
		}
	}
}

func TestRunMatchesDirectStats(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	vals := make([]float64, 0, 30)
	i := 0
	res, err := Run(Plan{MinSamples: 30}, func() float64 {
		v := 5 + rng.NormFloat64()
		vals = append(vals, v)
		i++
		return v
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Summary.Mean-stats.Mean(vals)) > 1e-12 {
		t.Error("summary mean disagrees with raw data")
	}
	if len(res.Raw) != len(vals) {
		t.Error("raw data not preserved")
	}
}

func TestEventsPerSampleAggregation(t *testing.T) {
	calls := 0
	res, err := Run(Plan{MinSamples: 10, EventsPerSample: 4}, func() float64 {
		calls++
		return float64(calls)
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 40 {
		t.Errorf("calls = %d, want 40 (10 samples × 4 events)", calls)
	}
	if !res.ResolutionLost {
		t.Error("k>1 must flag resolution loss")
	}
	// First observation is the mean of events 1..4 = 2.5.
	if res.Raw[0] != 2.5 {
		t.Errorf("first block mean = %g, want 2.5", res.Raw[0])
	}
	// k=1 keeps resolution.
	res1, err := Run(Plan{MinSamples: 10}, func() float64 { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	if res1.ResolutionLost {
		t.Error("k=1 must not flag resolution loss")
	}
}

func TestTimerWarnings(t *testing.T) {
	cal := &timer.Calibration{
		Resolution: time.Microsecond,
		Overhead:   100 * time.Nanosecond,
	}
	// Minimum reliable interval is 10µs; feed 1µs observations.
	res, err := Run(Plan{MinSamples: 10, Timer: cal}, func() float64 {
		return 1e-6
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TimerWarnings != 10 {
		t.Errorf("warnings = %d, want 10", res.TimerWarnings)
	}
	// Long-enough intervals produce no warnings.
	res, err = Run(Plan{MinSamples: 10, Timer: cal}, func() float64 {
		return 1e-3
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TimerWarnings != 0 {
		t.Errorf("warnings = %d, want 0", res.TimerWarnings)
	}
}
