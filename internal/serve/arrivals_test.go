package serve

import (
	"errors"
	"math"
	"testing"
	"time"
)

func TestScheduleDeterministic(t *testing.T) {
	cfgs := []ArrivalConfig{
		{Kind: Poisson, Rate: 500},
		{Kind: Diurnal, Rate: 500, Periods: []DiurnalPeriod{{Period: 2 * time.Second, Amplitude: 0.5}}},
		{Kind: OnOff, Rate: 500},
	}
	for _, cfg := range cfgs {
		a, err := cfg.Schedule(5*time.Second, 0, 42)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Kind, err)
		}
		b, err := cfg.Schedule(5*time.Second, 0, 42)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Kind, err)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: same seed, different lengths %d vs %d", cfg.Kind, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: same seed diverges at %d: %v vs %v", cfg.Kind, i, a[i], b[i])
			}
		}
		c, err := cfg.Schedule(5*time.Second, 0, 43)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Kind, err)
		}
		if len(a) == len(c) {
			same := true
			for i := range a {
				if a[i] != c[i] {
					same = false
					break
				}
			}
			if same {
				t.Fatalf("%s: different seeds produced identical schedules", cfg.Kind)
			}
		}
	}
}

func TestScheduleMonotoneInRange(t *testing.T) {
	for _, cfg := range []ArrivalConfig{
		{Kind: Poisson, Rate: 1000},
		{Kind: Diurnal, Rate: 1000, Periods: []DiurnalPeriod{{Period: time.Second, Amplitude: 1}}},
		{Kind: OnOff, Rate: 1000},
	} {
		dur := 3 * time.Second
		sched, err := cfg.Schedule(dur, 0, 7)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Kind, err)
		}
		prev := time.Duration(-1)
		for i, at := range sched {
			if at <= 0 || at > dur {
				t.Fatalf("%s: arrival %d at %v outside (0, %v]", cfg.Kind, i, at, dur)
			}
			if at < prev {
				t.Fatalf("%s: arrival %d at %v before predecessor %v", cfg.Kind, i, at, prev)
			}
			prev = at
		}
	}
}

func TestPoissonRate(t *testing.T) {
	// 200 req/s over 50 s: the count is Poisson(10000); five standard
	// deviations is ±500.
	sched, err := ArrivalConfig{Rate: 200}.Schedule(50*time.Second, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(sched); math.Abs(float64(n)-10000) > 500 {
		t.Fatalf("poisson count %d, want 10000±500", n)
	}
}

func TestDiurnalModulation(t *testing.T) {
	// One full 10 s sinusoid at amplitude 0.9: the positive half-wave
	// must carry far more arrivals than the trough half.
	cfg := ArrivalConfig{
		Kind:    Diurnal,
		Rate:    500,
		Periods: []DiurnalPeriod{{Period: 10 * time.Second, Amplitude: 0.9}},
	}
	sched, err := cfg.Schedule(10*time.Second, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	var first, second int
	for _, at := range sched {
		if at <= 5*time.Second {
			first++
		} else {
			second++
		}
	}
	if first < 2*second {
		t.Fatalf("diurnal modulation missing: first half %d, second half %d", first, second)
	}
	// The long-run mean must still be Rate: expected ≈ 5000.
	if n := len(sched); math.Abs(float64(n)-5000) > 500 {
		t.Fatalf("diurnal count %d, want ≈5000 (mean-rate preservation)", n)
	}
}

func TestOnOffBurstiness(t *testing.T) {
	// The MMPP must be overdispersed relative to Poisson: the index of
	// dispersion (var/mean of per-bin counts) is ≈1 for Poisson and ≫1
	// for ON/OFF bursts.
	dur := 20 * time.Second
	bin := 50 * time.Millisecond
	dispersion := func(cfg ArrivalConfig) float64 {
		sched, err := cfg.Schedule(dur, 0, 11)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]float64, int(dur/bin))
		for _, at := range sched {
			i := int(at / bin)
			if i >= len(counts) {
				i = len(counts) - 1
			}
			counts[i]++
		}
		var mean float64
		for _, c := range counts {
			mean += c
		}
		mean /= float64(len(counts))
		var v float64
		for _, c := range counts {
			v += (c - mean) * (c - mean)
		}
		v /= float64(len(counts) - 1)
		return v / mean
	}
	poisson := dispersion(ArrivalConfig{Rate: 400})
	burst := dispersion(ArrivalConfig{Kind: OnOff, Rate: 400})
	if poisson > 1.5 {
		t.Fatalf("poisson dispersion %.2f, want ≈1", poisson)
	}
	if burst < 2 {
		t.Fatalf("onoff dispersion %.2f, want ≫1 (poisson was %.2f)", burst, poisson)
	}
}

func TestScheduleMaxN(t *testing.T) {
	sched, err := ArrivalConfig{Rate: 1e6}.Schedule(time.Second, 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched) != 100 {
		t.Fatalf("maxN cap: got %d arrivals, want 100", len(sched))
	}
}

func TestScheduleErrors(t *testing.T) {
	bad := []ArrivalConfig{
		{Kind: "weibull", Rate: 1},
		{Rate: 0},
		{Rate: -3},
		{Rate: math.Inf(1)},
		{Kind: Diurnal, Rate: 1},
		{Kind: Diurnal, Rate: 1, Periods: []DiurnalPeriod{{Period: -time.Second}}},
		{Kind: Diurnal, Rate: 1, Periods: []DiurnalPeriod{{Period: time.Second, Amplitude: 1.5}}},
		{Kind: OnOff, Rate: 1, MeanOn: -time.Second},
		{Kind: OnOff, Rate: 1, OnFactor: -1},
		// NaN and +Inf parameters are rejected like out-of-range ones.
		{Kind: Diurnal, Rate: 1, Periods: []DiurnalPeriod{{Period: time.Second, Amplitude: math.NaN()}}},
		{Kind: OnOff, Rate: 1, OnFactor: math.NaN()},
		{Kind: OnOff, Rate: 1, OnFactor: 2, OffFactor: math.NaN()},
		{Kind: OnOff, Rate: 1, OnFactor: math.Inf(1)},
	}
	for i, cfg := range bad {
		if _, err := cfg.Schedule(time.Second, 0, 1); !errors.Is(err, ErrBadArrivals) {
			t.Errorf("config %d: err = %v, want ErrBadArrivals", i, err)
		}
	}
	if _, err := (ArrivalConfig{Rate: 1}).Schedule(0, 0, 1); !errors.Is(err, ErrBadArrivals) {
		t.Errorf("zero duration: err = %v, want ErrBadArrivals", err)
	}
}

// FuzzArrivalSchedule checks the generator invariants on arbitrary
// inputs: no panics, arrivals strictly inside (0, duration], monotone
// non-decreasing, capped at maxN, and bit-identical on regeneration.
func FuzzArrivalSchedule(f *testing.F) {
	f.Add(uint8(0), uint64(1), uint16(1000), uint8(10))
	f.Add(uint8(1), uint64(42), uint16(500), uint8(3))
	f.Add(uint8(2), uint64(7), uint16(60000), uint8(1))
	f.Fuzz(func(t *testing.T, kind uint8, seed uint64, rateMilli uint16, durDeciSec uint8) {
		rate := float64(rateMilli) // up to 65535 req/s
		if rate == 0 {
			rate = 0.5
		}
		dur := time.Duration(int(durDeciSec)%50+1) * 100 * time.Millisecond
		var cfg ArrivalConfig
		switch kind % 3 {
		case 0:
			cfg = ArrivalConfig{Kind: Poisson, Rate: rate}
		case 1:
			cfg = ArrivalConfig{Kind: Diurnal, Rate: rate, Periods: []DiurnalPeriod{
				{Period: dur / 2, Amplitude: float64(seed%101) / 100},
				{Period: dur, Amplitude: 0.3},
			}}
		case 2:
			cfg = ArrivalConfig{Kind: OnOff, Rate: rate,
				MeanOn:  time.Duration(seed%97+1) * time.Millisecond,
				MeanOff: time.Duration(seed%251+1) * time.Millisecond}
		}
		maxN := 20000
		a, err := cfg.Schedule(dur, maxN, seed)
		if err != nil {
			t.Fatalf("valid config rejected: %v", err)
		}
		if len(a) > maxN {
			t.Fatalf("maxN %d exceeded: %d arrivals", maxN, len(a))
		}
		prev := time.Duration(-1)
		for i, at := range a {
			if at <= 0 || at > dur {
				t.Fatalf("arrival %d at %v outside (0, %v]", i, at, dur)
			}
			if at < prev {
				t.Fatalf("arrival %d at %v before %v", i, at, prev)
			}
			prev = at
		}
		b, err := cfg.Schedule(dur, maxN, seed)
		if err != nil || len(a) != len(b) {
			t.Fatalf("regeneration diverged: %v, %d vs %d", err, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("regeneration diverged at %d", i)
			}
		}
	})
}
