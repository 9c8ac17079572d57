package serve

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/rng"
)

// ArrivalKind names an open-loop arrival process.
type ArrivalKind string

// Supported arrival processes.
const (
	// Poisson is a homogeneous Poisson process: exponential
	// inter-arrival gaps at a constant mean rate.
	Poisson ArrivalKind = "poisson"
	// Diurnal is a non-homogeneous Poisson process whose instantaneous
	// rate is modulated by one or more sinusoidal periods (the
	// multi-period "time of day" traffic shape), generated by thinning
	// against the peak rate.
	Diurnal ArrivalKind = "diurnal"
	// OnOff is a two-state Markov-modulated Poisson process: bursts at
	// OnFactor×Rate during exponentially-distributed ON holds, quiet at
	// OffFactor×Rate during OFF holds.
	OnOff ArrivalKind = "onoff"
)

// DiurnalPeriod is one sinusoidal component of a diurnal rate profile:
// rate(t) = Rate · (1 + Σᵢ Amplitudeᵢ·sin(2π·t/Periodᵢ)), clamped at 0.
type DiurnalPeriod struct {
	Period    time.Duration
	Amplitude float64 // in [0, 1]
}

// ArrivalConfig parametrizes an arrival process. The long-run mean rate
// is Rate for every kind (diurnal sinusoids integrate to zero over full
// periods; the ON/OFF defaults are normalized the same way), so a load
// sweep that scales Rate scales offered load identically across kinds.
type ArrivalConfig struct {
	Kind ArrivalKind
	// Rate is the long-run mean arrival rate in requests per second.
	Rate float64
	// Periods configures the Diurnal kind (required for it).
	Periods []DiurnalPeriod
	// OnFactor/OffFactor multiply Rate during ON/OFF holds of the OnOff
	// kind; MeanOn/MeanOff are the mean hold times. Zero OnFactor
	// selects (MeanOn+MeanOff)/MeanOn with OffFactor 0, which preserves
	// the long-run mean of Rate. MeanOn/MeanOff default to 100ms/300ms.
	OnFactor  float64
	OffFactor float64
	MeanOn    time.Duration
	MeanOff   time.Duration
}

// ErrBadArrivals reports a nonsensical arrival configuration.
var ErrBadArrivals = errors.New("serve: invalid arrival config")

func (c ArrivalConfig) withDefaults() (ArrivalConfig, error) {
	if c.Kind == "" {
		c.Kind = Poisson
	}
	switch c.Kind {
	case Poisson, Diurnal, OnOff:
	default:
		return c, fmt.Errorf("%w: unknown kind %q", ErrBadArrivals, c.Kind)
	}
	if !(c.Rate > 0) || math.IsInf(c.Rate, 0) {
		return c, fmt.Errorf("%w: rate %g must be positive and finite", ErrBadArrivals, c.Rate)
	}
	if c.Kind == Diurnal {
		if len(c.Periods) == 0 {
			return c, fmt.Errorf("%w: diurnal arrivals need at least one period", ErrBadArrivals)
		}
		for _, p := range c.Periods {
			if p.Period <= 0 {
				return c, fmt.Errorf("%w: diurnal period %v must be positive", ErrBadArrivals, p.Period)
			}
			if !(p.Amplitude >= 0 && p.Amplitude <= 1) {
				return c, fmt.Errorf("%w: diurnal amplitude %g outside [0, 1]", ErrBadArrivals, p.Amplitude)
			}
		}
	}
	if c.Kind == OnOff {
		if c.MeanOn == 0 {
			c.MeanOn = 100 * time.Millisecond
		}
		if c.MeanOff == 0 {
			c.MeanOff = 300 * time.Millisecond
		}
		if c.MeanOn < 0 || c.MeanOff < 0 {
			return c, fmt.Errorf("%w: negative ON/OFF hold times", ErrBadArrivals)
		}
		if c.OnFactor == 0 {
			// Preserve the long-run mean: burst hard enough during ON to
			// make up for a silent OFF.
			c.OnFactor = float64(c.MeanOn+c.MeanOff) / float64(c.MeanOn)
			c.OffFactor = 0
		}
		if !(c.OnFactor >= 0) || !(c.OffFactor >= 0) || math.IsInf(c.OnFactor, 1) || math.IsInf(c.OffFactor, 1) {
			return c, fmt.Errorf("%w: ON/OFF rate factors %g, %g must be non-negative and finite", ErrBadArrivals, c.OnFactor, c.OffFactor)
		}
		if c.OnFactor == 0 && c.OffFactor == 0 {
			return c, fmt.Errorf("%w: ON/OFF factors both zero generate no traffic", ErrBadArrivals)
		}
	}
	return c, nil
}

// Seed-stream salts: each independent random purpose inside a serve run
// derives its streams as Mix64(seed ^ salt [^ index]), per the rng
// package's discipline, so the arrival schedule, the service draws, and
// any future noise source never share a stream.
const (
	arrivalSaltHi = 0xa2c2_53e1_9cde_0001
	arrivalSaltLo = 0xa2c2_53e1_9cde_0002
	serviceSaltHi = 0x7b11_8d30_44fa_0001
	serviceSaltLo = 0x7b11_8d30_44fa_0002
)

// envelopeBins is the phase resolution of the diurnal sine envelope.
const envelopeBins = 1024

// envelopeMaxBin caps the bin coordinate t·envelopeBins/Period at which
// the envelope is trusted: below it, the rounding of the phase that
// rateAt hands to math.Sin stays far under the half-bin widening.
const envelopeMaxBin = 1 << 40

// sinLo[k] and sinHi[k] bound sin(2πφ) over phase bin k, widened by half
// a bin on each side: φ ∈ [(k-½)/envelopeBins, (k+1½)/envelopeBins].
var sinLo, sinHi = sinEnvelope()

func sinEnvelope() (lo, hi [envelopeBins]float64) {
	for k := range envelopeBins {
		a := (float64(k) - 0.5) / envelopeBins
		b := (float64(k) + 1.5) / envelopeBins
		sa, sb := math.Sin(2*math.Pi*a), math.Sin(2*math.Pi*b)
		lo[k], hi[k] = math.Min(sa, sb), math.Max(sa, sb)
		// Between its extrema at φ = ¼ and ¾ the sine is monotone.
		if a <= 0.25 && 0.25 <= b {
			hi[k] = 1
		}
		if a <= 0.75 && 0.75 <= b {
			lo[k] = -1
		}
	}
	return lo, hi
}

// envelopeTerm is one diurnal period as the squeeze step reads it: the
// scale from time to envelope bins, and the period's rate coefficient.
type envelopeTerm struct{ bins, coef float64 }

// expDraw returns an exponential inter-event gap in seconds at the given
// rate (events per second).
func expDraw(st *rng.Stream, rate float64) float64 {
	// 1-U ∈ (0, 1]: the log never sees zero.
	return -rng.Log(1-st.Float64()) / rate
}

// Schedule generates the deterministic open-loop arrival schedule:
// absolute arrival times in (0, duration], at most maxN of them (0
// selects DefaultMaxRequests); a longer schedule is cut at maxN. The
// schedule is a pure function of (config, duration, maxN, seed) —
// generation order is fixed and the stream is derived from the seed
// alone, so every worker count, shard layout, or replay sees
// bit-identical arrivals (Rule 9). It collects the same generator Run
// feeds its event loop from.
func (c ArrivalConfig) Schedule(duration time.Duration, maxN int, seed uint64) ([]time.Duration, error) {
	cfg, err := c.withDefaults()
	if err != nil {
		return nil, err
	}
	if duration <= 0 {
		return nil, fmt.Errorf("%w: duration %v must be positive", ErrBadArrivals, duration)
	}
	if maxN <= 0 {
		maxN = DefaultMaxRequests
	}
	// Size the schedule for the long-run mean count plus three standard
	// deviations of its Poisson spread, so a call allocates it once; a
	// burstier draw just grows it.
	expect := cfg.Rate * duration.Seconds()
	out := make([]time.Duration, 0, int(math.Min(float64(maxN), expect+3*math.Sqrt(expect)+16)))
	generate(cfg, duration, seed, func(at time.Duration) bool {
		out = append(out, at)
		return len(out) < maxN
	})
	return out, nil
}

// generate is the arrival generator of a validated config: it hands
// each arrival time in (0, duration] to yield, in order, until yield
// returns false or the next arrival would pass duration. The draws come
// from one stream derived from the seed alone, in a fixed order, so the
// arrivals are a pure function of (config, duration, seed); a sink that
// stops early sees a prefix of them.
func generate(cfg ArrivalConfig, duration time.Duration, seed uint64, yield func(at time.Duration) bool) {
	st := rng.NewStream(rng.Mix64(seed^arrivalSaltHi), rng.Mix64(seed^arrivalSaltLo))
	horizon := duration.Seconds()
	at := func(t float64) time.Duration { return time.Duration(math.Round(t * 1e9)) }

	switch cfg.Kind {
	case Poisson:
		for t := expDraw(&st, cfg.Rate); t <= horizon && yield(at(t)); t += expDraw(&st, cfg.Rate) {
		}

	case Diurnal:
		// Thinning (Lewis & Shedler): candidates at the peak rate, each
		// kept with probability rate(t)/peak. One stream drives both the
		// candidate gaps and the acceptance draws, in a fixed order.
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
		// Squeeze: the envelope bins of t's phases bound the unclamped
		// sum in rateAt(t) by [lo, hi], up to slack for rounding
		// (DESIGN.md, "Arrival generators"). A draw outside the band is
		// decided without math.Sin; rateAt decides the rest, so every
		// decision, and the schedule, is the exact thinning's. The clamp
		// at 0 needs no bound: u ≥ 0, so a negative lo keeps nothing and
		// a negative hi drops only draws that rateAt's 0 drops too.
		terms := make([]envelopeTerm, len(cfg.Periods))
		for i, p := range cfg.Periods {
			terms[i] = envelopeTerm{bins: envelopeBins / p.Period.Seconds(), coef: cfg.Rate * p.Amplitude}
		}
		slack := 1e-12 * peak
		for t := expDraw(&st, peak); t <= horizon; t += expDraw(&st, peak) {
			u := st.Float64() * peak
			lo, hi, ok := cfg.Rate, cfg.Rate, true
			for _, e := range terms {
				f := t * e.bins
				if !(f < envelopeMaxBin) {
					ok = false
					break
				}
				k := uint64(f) % envelopeBins
				lo += e.coef * sinLo[k]
				hi += e.coef * sinHi[k]
			}
			var keep bool
			switch {
			case ok && u < lo-slack:
				keep = true
			case ok && u >= hi+slack:
			default:
				keep = u < rateAt(t)
			}
			if keep && !yield(at(t)) {
				return
			}
		}

	case OnOff:
		// Competing exponentials: in each state, draw the next arrival
		// gap and the state-switch hold; whichever is sooner happens
		// (both distributions are memoryless, so re-drawing after a
		// switch is exact).
		on := true
		t := 0.0
		for t <= horizon {
			rate := cfg.Rate * cfg.OnFactor
			hold := cfg.MeanOn.Seconds()
			if !on {
				rate = cfg.Rate * cfg.OffFactor
				hold = cfg.MeanOff.Seconds()
			}
			var switchIn float64 = math.Inf(1)
			if hold > 0 {
				switchIn = expDraw(&st, 1/hold)
			}
			if rate <= 0 {
				t += switchIn
				on = !on
				continue
			}
			gap := expDraw(&st, rate)
			if gap < switchIn {
				t += gap
				if t > horizon || !yield(at(t)) {
					return
				}
			} else {
				t += switchIn
				on = !on
			}
		}
	}
}
