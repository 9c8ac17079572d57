package serve

import (
	"errors"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/rng"
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

// exactThinning is the diurnal Schedule without its squeeze step: the
// Lewis–Shedler loop that calls rateAt, and so math.Sin, on every
// candidate. It is the reference the squeezed generator must equal.
func exactThinning(c ArrivalConfig, duration time.Duration, maxN int, seed uint64) []time.Duration {
	cfg, err := c.withDefaults()
	if err != nil || cfg.Kind != Diurnal {
		panic("exactThinning: want a valid diurnal config")
	}
	if maxN <= 0 {
		maxN = DefaultMaxRequests
	}
	st := rng.NewStream(rng.Mix64(seed^arrivalSaltHi), rng.Mix64(seed^arrivalSaltLo))
	horizon := duration.Seconds()
	var out []time.Duration
	emit := func(t float64) bool {
		if t > horizon || len(out) >= maxN {
			return false
		}
		out = append(out, time.Duration(math.Round(t*1e9)))
		return true
	}
	peak := cfg.Rate
	for _, p := range cfg.Periods {
		peak += cfg.Rate * p.Amplitude
	}
	rateAt := func(t float64) float64 {
		r := cfg.Rate
		for _, p := range cfg.Periods {
			r += cfg.Rate * p.Amplitude * math.Sin(2*math.Pi*t/p.Period.Seconds())
		}
		return math.Max(r, 0)
	}
	for t := expDraw(&st, peak); t <= horizon && len(out) < maxN; t += expDraw(&st, peak) {
		if st.Float64()*peak < rateAt(t) {
			emit(t)
		}
	}
	return out
}

// TestSinEnvelopeBounds samples each widened phase bin densely: the sine
// never leaves [sinLo[k], sinHi[k]], and the bounds are tight to within
// the bin's own sampled range.
func TestSinEnvelopeBounds(t *testing.T) {
	const samples = 64
	for k := range envelopeBins {
		lo, hi := math.Inf(1), math.Inf(-1)
		for j := 0; j <= samples; j++ {
			phi := (float64(k) - 0.5 + 2*float64(j)/samples) / envelopeBins
			s := math.Sin(2 * math.Pi * phi)
			if s < sinLo[k] || s > sinHi[k] {
				t.Fatalf("bin %d: sin(2π·%g) = %g outside [%g, %g]", k, phi, s, sinLo[k], sinHi[k])
			}
			lo, hi = math.Min(lo, s), math.Max(hi, s)
		}
		if lo-sinLo[k] > 1e-6 || sinHi[k]-hi > 1e-6 {
			t.Fatalf("bin %d: bounds [%g, %g] loose against sampled [%g, %g]", k, sinLo[k], sinHi[k], lo, hi)
		}
	}
}

// TestDiurnalScheduleMatchesExactThinning pins the squeeze step to the
// exact thinning, arrival for arrival, over the shapes that stress its
// bounds: rates that touch or clamp at zero, sub-bin periods past the
// bin-coordinate guard, periods far longer than the horizon, and a flat
// profile.
func TestDiurnalScheduleMatchesExactThinning(t *testing.T) {
	epoch := 20 * time.Second
	cases := []struct {
		name    string
		rate    float64
		dur     time.Duration
		periods []DiurnalPeriod
		seeds   int
	}{
		{"golden", 1500, time.Second, []DiurnalPeriod{{Period: time.Second, Amplitude: 0.6}, {Period: 200 * time.Millisecond, Amplitude: 0.25}}, 120},
		{"diurnal2", 1900, epoch, []DiurnalPeriod{{Period: epoch, Amplitude: 0.6}, {Period: epoch / 5, Amplitude: 0.25}}, 18},
		{"touches zero", 3000, 2 * time.Second, []DiurnalPeriod{{Period: 500 * time.Millisecond, Amplitude: 1}}, 60},
		{"clamped", 3000, 2 * time.Second, []DiurnalPeriod{{Period: 700 * time.Millisecond, Amplitude: 1}, {Period: 90 * time.Millisecond, Amplitude: 1}}, 60},
		// Past 2^30 ns ≈ 1.07 s the 1 ns period's bin coordinate
		// t·1024/period passes 2^40, and every candidate is exact.
		{"sub-bin period", 4000, 3 * time.Second, []DiurnalPeriod{{Period: time.Nanosecond, Amplitude: 0.7}}, 30},
		{"long period", 3000, 2 * time.Second, []DiurnalPeriod{{Period: 1000 * time.Hour, Amplitude: 0.9}}, 60},
		{"flat", 3000, 2 * time.Second, []DiurnalPeriod{{Period: time.Second, Amplitude: 0}}, 60},
	}
	var total int
	for _, tc := range cases {
		cfg := ArrivalConfig{Kind: Diurnal, Rate: tc.rate, Periods: tc.periods}
		for seed := uint64(1); seed <= uint64(tc.seeds); seed++ {
			got, err := cfg.Schedule(tc.dur, 0, seed)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			want := exactThinning(cfg, tc.dur, 0, seed)
			if !slices.Equal(got, want) {
				t.Fatalf("%s seed %d: squeezed schedule (%d arrivals) differs from exact thinning (%d)", tc.name, seed, len(got), len(want))
			}
			if tc.name == "sub-bin period" && got[len(got)-1] <= 1<<30 {
				t.Fatalf("sub-bin period seed %d: no arrival past 2^30 ns exercises the guard", seed)
			}
			total += len(got)
		}
	}
	t.Logf("%d arrivals equal", total)
}

// BenchmarkScheduleDiurnal generates one epoch of the diurnal2 shape (a
// 20 s period at amplitude 0.6 plus its fifth at 0.25) at half of two
// 1 ms servers' capacity.
func BenchmarkScheduleDiurnal(b *testing.B) {
	epoch := 20 * time.Second
	cfg := ArrivalConfig{Kind: Diurnal, Rate: 1000, Periods: []DiurnalPeriod{
		{Period: epoch, Amplitude: 0.6},
		{Period: epoch / 5, Amplitude: 0.25},
	}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Schedule(epoch, 0, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzArrivalSchedule checks the generator invariants on arbitrary
// inputs: no panics, arrivals strictly inside (0, duration], monotone
// non-decreasing, capped at maxN, and bit-identical on regeneration.
// Diurnal schedules, whose first period is fuzzed down to 1 ns, must
// also equal the exact thinning.
func FuzzArrivalSchedule(f *testing.F) {
	f.Add(uint8(0), uint64(1), uint16(1000), uint8(10), uint64(0))
	f.Add(uint8(1), uint64(42), uint16(500), uint8(3), uint64(150_000_000))
	f.Add(uint8(1), uint64(9), uint16(30000), uint8(20), uint64(0))
	f.Add(uint8(1), uint64(5), uint16(20000), uint8(14), uint64(700))
	f.Add(uint8(2), uint64(7), uint16(60000), uint8(1), uint64(0))
	f.Fuzz(func(t *testing.T, kind uint8, seed uint64, rateMilli uint16, durDeciSec uint8, periodNs uint64) {
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
			// 1 ns up to about 69 s: below 1024 ns a period is shorter
			// than one envelope bin is wide in nanoseconds.
			period := time.Duration(periodNs%(1<<36) + 1)
			cfg = ArrivalConfig{Kind: Diurnal, Rate: rate, Periods: []DiurnalPeriod{
				{Period: period, Amplitude: float64(seed%101) / 100},
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
		if cfg.Kind == Diurnal && !slices.Equal(a, exactThinning(cfg, dur, maxN, seed)) {
			t.Fatalf("diurnal schedule differs from exact thinning")
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
