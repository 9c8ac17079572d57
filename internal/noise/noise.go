// Package noise models the sources of nondeterminism the paper lists in
// §1 — network background traffic, task scheduling, interrupts, cache
// effects — as composable stochastic processes that perturb simulated
// execution times. Each model maps a base duration (and the current
// simulated time, for time-correlated processes) to a perturbed duration.
//
// The models produce the phenomenology that motivates the paper's
// statistics: right-skewed log-normal bodies, heavy Pareto interference
// tails, multimodal mixtures from scheduling, and periodic OS jitter.
package noise

import (
	"math"
	"time"

	"repro/internal/rng"
)

// Source is the randomness a noise model may consume. Both
// *math/rand/v2.Rand (the machine's shared stream) and *rng.Stream (the
// per-rank value streams the collective engine uses) satisfy it, so one
// model works under either draw discipline.
type Source interface {
	Float64() float64
	NormFloat64() float64
}

// Model perturbs a nominal duration. Implementations must be
// deterministic given the rng stream, so seeded experiments reproduce
// bit-for-bit.
type Model interface {
	// Perturb returns the observed duration for a nominal duration d
	// occurring at simulated time now.
	Perturb(rng Source, now, d time.Duration) time.Duration
}

// None is the identity model (a perfectly quiet machine).
type None struct{}

// Perturb returns d unchanged.
func (None) Perturb(_ Source, _, d time.Duration) time.Duration { return d }

// Gaussian adds zero-mean normal noise with relative standard deviation
// Rel (e.g. 0.01 for 1%), truncated so durations stay positive.
type Gaussian struct {
	Rel float64
}

// Perturb applies the multiplicative Gaussian factor.
func (g Gaussian) Perturb(rng Source, _, d time.Duration) time.Duration {
	f := 1 + g.Rel*rng.NormFloat64()
	if f < 0.01 {
		f = 0.01
	}
	return time.Duration(float64(d) * f)
}

// LogNormal multiplies the duration by exp(σ·Z), the right-skewed
// multiplicative slowdown observed for most system activity. Sigma around
// 0.005–0.05 reproduces typical supercomputer variability; the mean
// slowdown exp(σ²/2) is intentionally > 1 (noise only delays).
type LogNormal struct {
	Sigma float64
}

// Perturb applies the log-normal slowdown.
func (l LogNormal) Perturb(src Source, _, d time.Duration) time.Duration {
	return time.Duration(float64(d) * rng.Exp(l.Sigma*src.NormFloat64()))
}

// ParetoTail adds, with probability Prob per event, a heavy-tailed delay
// of at least Scale (Pareto shape Alpha) — rare interference such as
// network congestion bursts or page faults.
type ParetoTail struct {
	Prob  float64       // per-event probability of an interference hit
	Scale time.Duration // minimum extra delay when hit
	Alpha float64       // tail index (smaller = heavier); 1.5–3 typical
}

// Perturb adds the occasional Pareto-distributed delay.
func (p ParetoTail) Perturb(rng Source, _, d time.Duration) time.Duration {
	if rng.Float64() >= p.Prob {
		return d
	}
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	extra := float64(p.Scale) / math.Pow(u, 1/p.Alpha)
	return d + time.Duration(extra)
}

// Periodic models OS daemon activity: every Period of simulated time, a
// window of length Window steals the core, delaying any event that lands
// inside it by the remainder of the window (the "fixed-frequency noise"
// of Hoefler, Schneider & Lumsdaine's noise studies). Phase offsets the
// window start.
type Periodic struct {
	Period time.Duration
	Window time.Duration
	Phase  time.Duration
}

// Perturb delays events that fall into the periodic interference window.
func (p Periodic) Perturb(_ Source, now, d time.Duration) time.Duration {
	if p.Period <= 0 || p.Window <= 0 {
		return d
	}
	pos := (now + p.Phase) % p.Period
	if pos < p.Window {
		return d + (p.Window - pos)
	}
	return d
}

// Mixture selects one of its component models per event according to
// Weights (normalized internally), producing the multimodal timing
// distributions that scheduling and cache effects create.
type Mixture struct {
	Models  []Model
	Weights []float64
}

// Perturb dispatches to one randomly chosen component.
func (m Mixture) Perturb(rng Source, now, d time.Duration) time.Duration {
	if len(m.Models) == 0 {
		return d
	}
	total := 0.0
	for _, w := range m.Weights {
		total += w
	}
	if total <= 0 {
		return m.Models[0].Perturb(rng, now, d)
	}
	u := rng.Float64() * total
	for i, w := range m.Weights {
		if u < w || i == len(m.Models)-1 {
			return m.Models[i].Perturb(rng, now, d)
		}
		u -= w
	}
	return d
}

// Stack applies models in sequence, feeding each model's output to the
// next — e.g. a log-normal body plus a Pareto tail plus periodic jitter.
type Stack []Model

// Perturb chains all component models.
func (s Stack) Perturb(rng Source, now, d time.Duration) time.Duration {
	for _, m := range s {
		d = m.Perturb(rng, now, d)
	}
	return d
}

// Shift adds a constant offset (modeling, e.g., warmup cost on the first
// iterations when combined with Once).
type Shift struct {
	Delta time.Duration
}

// Perturb adds the constant shift.
func (s Shift) Perturb(_ Source, _, d time.Duration) time.Duration {
	return d + s.Delta
}

// Once applies the inner model only to the first Count events, then
// becomes the identity — the "establish working state on demand" warmup
// behaviour of §4.1.2 (connection setup, cold caches, JIT).
type Once struct {
	Inner Model
	Count int
	seen  int
}

// Perturb applies Inner for the first Count events only. Once is
// stateful and must not be shared across concurrent processes.
func (o *Once) Perturb(rng Source, now, d time.Duration) time.Duration {
	if o.seen < o.Count {
		o.seen++
		return o.Inner.Perturb(rng, now, d)
	}
	return d
}

// Reset re-arms a Once model for a fresh run.
func (o *Once) Reset() { o.seen = 0 }
