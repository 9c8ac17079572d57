package bench

import (
	"errors"
	"fmt"
	"time"
)

// Errors surfaced by the resilient collection loop.
var (
	// ErrMeasurePanic wraps a panic recovered from the measure function.
	ErrMeasurePanic = errors.New("bench: measure panicked")
	// ErrSampleTimeout reports a sample attempt that exceeded the
	// watchdog deadline (Resilience.SampleTimeout).
	ErrSampleTimeout = errors.New("bench: sample deadline exceeded")
)

// Resilience configures the fault-tolerant collection loop. The paper's
// rules assume every measurement completes; on real systems nodes
// straggle, daemons interfere, and processes crash. Rather than abort —
// or worse, silently drop the bad samples (a Rule 4 violation) — the
// resilient loop bounds each attempt, retries it at once, and reports
// every loss in the Result.
type Resilience struct {
	// SampleTimeout, when positive, arms a wall-clock watchdog per
	// sample attempt: the measure function runs in a goroutine and an
	// attempt that exceeds the deadline fails with ErrSampleTimeout.
	// Caveat: the abandoned goroutine keeps running to completion in the
	// background (Go cannot kill it), so the measure function must be
	// safe to overlap with the next attempt. For measure functions that
	// share non-thread-safe state (e.g. a simulated cluster Machine),
	// leave this zero and bound attempts with ValueCeiling instead.
	SampleTimeout time.Duration
	// ValueCeiling, when positive, discards (and retries) any observed
	// value at or above it — a simulated-time analogue of the watchdog,
	// catching crash-timeout sentinels and straggler-inflated samples
	// without goroutines.
	ValueCeiling float64
	// MaxRetries bounds extra attempts per observation slot. Zero
	// selects the default of 2; negative values are rejected.
	MaxRetries int
	// MaxLossFraction is the degradation threshold: once more than this
	// fraction of attempts has been lost (after a minimal probe of 10),
	// collection stops with StopDegraded and a partial Result. Zero
	// selects the default of 0.5; values outside (0, 1] are rejected.
	// A value of 1 never degrades: collection runs until MinSamples or
	// the sample budget regardless of loss.
	MaxLossFraction float64
}

func (r Resilience) withDefaults() (Resilience, error) {
	switch {
	case r.SampleTimeout < 0:
		return r, fmt.Errorf("%w: negative SampleTimeout %v", ErrBadPlan, r.SampleTimeout)
	case r.ValueCeiling < 0:
		return r, fmt.Errorf("%w: negative ValueCeiling %g", ErrBadPlan, r.ValueCeiling)
	case r.MaxRetries < 0:
		return r, fmt.Errorf("%w: negative MaxRetries %d", ErrBadPlan, r.MaxRetries)
	case r.MaxLossFraction < 0 || r.MaxLossFraction > 1:
		return r, fmt.Errorf("%w: MaxLossFraction %g outside [0, 1]", ErrBadPlan, r.MaxLossFraction)
	}
	if r.MaxRetries == 0 {
		r.MaxRetries = 2
	}
	if r.MaxLossFraction == 0 {
		r.MaxLossFraction = 0.5
	}
	return r, nil
}

// guard runs one measure attempt with panic recovery and, when armed,
// the wall-clock watchdog. Safe on a nil receiver (plain Run still gets
// panic recovery — a broken measure function surfaces as an error, not a
// crashed campaign).
func (r *Resilience) guard(measure func() (float64, error)) (float64, error) {
	call := func() (v float64, err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("%w: %v", ErrMeasurePanic, p)
			}
		}()
		return measure()
	}
	if r == nil || r.SampleTimeout <= 0 {
		return call()
	}
	type outcome struct {
		v   float64
		err error
	}
	done := make(chan outcome, 1) // buffered: the goroutine never blocks
	go func() {
		v, err := call()
		done <- outcome{v, err}
	}()
	watchdog := time.NewTimer(r.SampleTimeout)
	defer watchdog.Stop()
	select {
	case o := <-done:
		return o.v, o.err
	case <-watchdog.C:
		telWatchdog.Inc()
		return 0, ErrSampleTimeout
	}
}
