// Package timer provides calibrated interval measurement per the paper's
// §4.2.1: before trusting measured intervals, an experimenter must know
// the timer's resolution and per-call overhead, ensure the overhead is a
// small fraction of the measured interval (the paper suggests < 5%), and
// ensure the resolution is sufficient (the paper suggests 10× finer than
// the interval). The package also provides a virtual clock so simulated
// experiments use exactly the same measurement code path as real ones.
package timer

import (
	"fmt"
	"sort"
	"time"
)

// Clock abstracts a time source so simulated and real experiments share
// one measurement path.
type Clock interface {
	// Now returns the current time as a monotonic duration from an
	// arbitrary epoch.
	Now() time.Duration
}

// WallClock reads the process monotonic clock via time.Since on a fixed
// epoch, which Go guarantees uses the monotonic reading.
type WallClock struct {
	epoch time.Time
}

// NewWallClock returns a WallClock anchored at the current instant.
func NewWallClock() *WallClock {
	return &WallClock{epoch: time.Now()}
}

// Now returns the monotonic time since the clock was created.
func (c *WallClock) Now() time.Duration { return time.Since(c.epoch) }

// VirtualClock is a manually advanced clock for discrete-event
// simulations. It is not safe for concurrent use; simulators advance it
// from a single scheduling goroutine.
type VirtualClock struct {
	now time.Duration
}

// Now returns the current virtual time.
func (c *VirtualClock) Now() time.Duration { return c.now }

// Advance moves the virtual clock forward by d (negative d is ignored,
// virtual time never goes backwards).
func (c *VirtualClock) Advance(d time.Duration) {
	if d > 0 {
		c.now += d
	}
}

// Set jumps the clock to t if t is in the future.
func (c *VirtualClock) Set(t time.Duration) {
	if t > c.now {
		c.now = t
	}
}

// Calibration describes a time source's measured quality.
type Calibration struct {
	// Resolution is the smallest observable nonzero increment between
	// consecutive readings.
	Resolution time.Duration
	// Overhead is the median cost of one Now() call.
	Overhead time.Duration
}

// Calibrate measures the resolution and per-call overhead of a clock by
// sampling consecutive readings. It mirrors what LibSciBench reports on
// startup for its timers.
func Calibrate(c Clock, samples int) Calibration {
	if samples < 16 {
		samples = 16
	}
	// Resolution: smallest nonzero delta between back-to-back readings,
	// spinning until the reading changes.
	resDeltas := make([]time.Duration, 0, samples)
	for i := 0; i < samples; i++ {
		a := c.Now()
		b := c.Now()
		for b == a {
			b = c.Now()
		}
		resDeltas = append(resDeltas, b-a)
	}
	sort.Slice(resDeltas, func(i, j int) bool { return resDeltas[i] < resDeltas[j] })
	resolution := resDeltas[0]

	// Overhead: time k consecutive calls, divide.
	const k = 256
	ohs := make([]time.Duration, 0, samples)
	for i := 0; i < samples; i++ {
		start := c.Now()
		for j := 0; j < k; j++ {
			_ = c.Now()
		}
		ohs = append(ohs, (c.Now()-start)/k)
	}
	sort.Slice(ohs, func(i, j int) bool { return ohs[i] < ohs[j] })
	return Calibration{Resolution: resolution, Overhead: ohs[len(ohs)/2]}
}

// Quality thresholds from §4.2.1.
const (
	// MaxOverheadFraction is the largest acceptable ratio of timer
	// overhead to measured interval ("we suggest <5%").
	MaxOverheadFraction = 0.05
	// MinResolutionFactor is the required ratio of interval to timer
	// resolution ("we suggest 10x higher").
	MinResolutionFactor = 10
)

// Check validates a measured interval against the calibration and
// returns a non-nil warning error when the measurement is untrustworthy:
// either the timer overhead exceeds MaxOverheadFraction of the interval
// or the resolution is coarser than interval/MinResolutionFactor.
func (cal Calibration) Check(interval time.Duration) error {
	if interval <= 0 {
		return fmt.Errorf("timer: non-positive interval %v", interval)
	}
	if float64(cal.Overhead) > MaxOverheadFraction*float64(interval) {
		return fmt.Errorf("timer: overhead %v exceeds %.0f%% of interval %v; measure more events per interval",
			cal.Overhead, MaxOverheadFraction*100, interval)
	}
	if float64(cal.Resolution)*MinResolutionFactor > float64(interval) {
		return fmt.Errorf("timer: resolution %v too coarse for interval %v (need %dx margin)",
			cal.Resolution, interval, MinResolutionFactor)
	}
	return nil
}

// MinReliableInterval returns the smallest interval this calibration can
// measure within the §4.2.1 quality thresholds.
func (cal Calibration) MinReliableInterval() time.Duration {
	byOverhead := time.Duration(float64(cal.Overhead) / MaxOverheadFraction)
	byResolution := cal.Resolution * MinResolutionFactor
	if byOverhead > byResolution {
		return byOverhead
	}
	return byResolution
}
