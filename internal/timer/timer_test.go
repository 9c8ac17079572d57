package timer

import (
	"testing"
	"time"
)

func TestVirtualClock(t *testing.T) {
	var c VirtualClock
	if c.Now() != 0 {
		t.Error("fresh virtual clock should read 0")
	}
	c.Advance(5 * time.Microsecond)
	if c.Now() != 5*time.Microsecond {
		t.Errorf("Now = %v", c.Now())
	}
	c.Advance(-time.Second) // ignored
	if c.Now() != 5*time.Microsecond {
		t.Error("virtual time went backwards")
	}
	c.Set(time.Millisecond)
	if c.Now() != time.Millisecond {
		t.Errorf("Set: Now = %v", c.Now())
	}
	c.Set(0) // ignored: in the past
	if c.Now() != time.Millisecond {
		t.Error("Set moved the clock backwards")
	}
}

func TestWallClockMonotonic(t *testing.T) {
	c := NewWallClock()
	a := c.Now()
	b := c.Now()
	if b < a {
		t.Errorf("wall clock not monotonic: %v then %v", a, b)
	}
}

func TestCalibrateWallClock(t *testing.T) {
	cal := Calibrate(NewWallClock(), 32)
	if cal.Resolution <= 0 {
		t.Errorf("resolution = %v, want > 0", cal.Resolution)
	}
	if cal.Overhead < 0 {
		t.Errorf("overhead = %v, want >= 0", cal.Overhead)
	}
	// Modern platforms: resolution and overhead far below 1 ms.
	if cal.Resolution > time.Millisecond {
		t.Errorf("implausible resolution %v", cal.Resolution)
	}
	if cal.Overhead > time.Millisecond {
		t.Errorf("implausible overhead %v", cal.Overhead)
	}
}

func TestCalibrationCheck(t *testing.T) {
	cal := Calibration{Resolution: time.Microsecond, Overhead: 100 * time.Nanosecond}

	// Long interval: fine.
	if err := cal.Check(time.Millisecond); err != nil {
		t.Errorf("1ms should pass: %v", err)
	}
	// Interval where overhead is 10% (> 5%): rejected.
	if err := cal.Check(1 * time.Microsecond); err == nil {
		t.Error("1µs should fail the overhead rule")
	}
	// Interval finer than 10x resolution: rejected.
	if err := cal.Check(5 * time.Microsecond); err == nil {
		t.Error("5µs should fail the resolution rule (needs 10µs)")
	}
	// Non-positive interval: rejected.
	if err := cal.Check(0); err == nil {
		t.Error("0 interval should fail")
	}
}

func TestMinReliableInterval(t *testing.T) {
	cal := Calibration{Resolution: time.Microsecond, Overhead: 100 * time.Nanosecond}
	// Overhead bound: 100ns/0.05 = 2µs; resolution bound: 10µs → 10µs.
	if got := cal.MinReliableInterval(); got != 10*time.Microsecond {
		t.Errorf("MinReliableInterval = %v, want 10µs", got)
	}
	if err := cal.Check(cal.MinReliableInterval()); err != nil {
		t.Errorf("the minimum reliable interval must pass Check: %v", err)
	}
	// Overhead-dominated calibration.
	cal2 := Calibration{Resolution: time.Nanosecond, Overhead: time.Microsecond}
	if got := cal2.MinReliableInterval(); got != 20*time.Microsecond {
		t.Errorf("MinReliableInterval = %v, want 20µs", got)
	}
}

func TestCalibrateMinimumSamples(t *testing.T) {
	// samples < 16 is clamped, must still work.
	cal := Calibrate(NewWallClock(), 1)
	if cal.Resolution <= 0 {
		t.Error("clamped calibration failed")
	}
}
