package desim

import (
	"fmt"
	"testing"
	"time"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	var e Engine
	var order []int
	e.At(30*time.Microsecond, func(*Engine) { order = append(order, 3) })
	e.At(10*time.Microsecond, func(*Engine) { order = append(order, 1) })
	e.At(20*time.Microsecond, func(*Engine) { order = append(order, 2) })
	end := e.Run()
	if end != 30*time.Microsecond {
		t.Errorf("end time = %v", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if e.Steps() != 3 {
		t.Errorf("steps = %d", e.Steps())
	}
}

func TestTiesBreakFIFO(t *testing.T) {
	var e Engine
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(time.Microsecond, func(*Engine) { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order = %v, want FIFO", order)
		}
	}
}

func TestAfterAndCascade(t *testing.T) {
	var e Engine
	var fired []time.Duration
	e.After(5*time.Microsecond, func(en *Engine) {
		fired = append(fired, en.Now())
		en.After(7*time.Microsecond, func(en *Engine) {
			fired = append(fired, en.Now())
		})
	})
	e.Run()
	if len(fired) != 2 || fired[0] != 5*time.Microsecond || fired[1] != 12*time.Microsecond {
		t.Errorf("fired = %v", fired)
	}
}

func TestPastSchedulingClamps(t *testing.T) {
	var e Engine
	var at time.Duration = -1
	e.At(10*time.Microsecond, func(en *Engine) {
		// Scheduling in the past runs "now", never before.
		en.At(time.Microsecond, func(en *Engine) { at = en.Now() })
	})
	e.Run()
	if at != 10*time.Microsecond {
		t.Errorf("past event ran at %v, want clamped to 10µs", at)
	}
	// Negative delay clamps too.
	var e2 Engine
	e2.After(-time.Second, func(en *Engine) { at = en.Now() })
	e2.Run()
	if at != 0 {
		t.Errorf("negative After ran at %v", at)
	}
}

func TestAdvanceTo(t *testing.T) {
	var e Engine
	var count int
	for i := 1; i <= 5; i++ {
		e.At(time.Duration(i)*time.Millisecond, func(*Engine) { count++ })
	}
	// Events strictly before the target run; the one at it stays queued.
	e.AdvanceTo(3 * time.Millisecond)
	if count != 2 {
		t.Errorf("processed %d events before 3ms, want 2", count)
	}
	if e.Pending() != 3 {
		t.Errorf("pending = %d, want 3", e.Pending())
	}
	if e.Now() != 3*time.Millisecond {
		t.Errorf("clock = %v after AdvanceTo(3ms), want 3ms", e.Now())
	}
	// The clock never moves backwards.
	e.AdvanceTo(time.Millisecond)
	if e.Now() != 3*time.Millisecond || count != 2 {
		t.Errorf("AdvanceTo into the past: clock %v, count %d", e.Now(), count)
	}
	e.Run()
	if count != 5 {
		t.Errorf("total = %d", count)
	}
	// On an empty queue AdvanceTo is a pure clock move.
	var idle Engine
	idle.AdvanceTo(7 * time.Millisecond)
	if idle.Now() != 7*time.Millisecond || idle.Steps() != 0 {
		t.Errorf("empty engine: clock %v, steps %d", idle.Now(), idle.Steps())
	}
}

func TestAtAfterPartialRunKeepsOrder(t *testing.T) {
	// An event scheduled after a partial run, between the clock and an
	// event already queued beyond it, fires before that event. A queue
	// that keeps a dequeue cursor past the clock gets this wrong (it once
	// fired [1ms 5ms 4ms]). Two midpoints, so the check does not hinge
	// on one spacing.
	for _, mid := range []time.Duration{4 * time.Millisecond, 3 * time.Millisecond} {
		var e Engine
		var fired []time.Duration
		rec := func(en *Engine) { fired = append(fired, en.Now()) }
		e.At(time.Millisecond, rec)
		e.At(5*time.Millisecond, rec)
		e.AdvanceTo(3 * time.Millisecond)
		e.At(mid, rec)
		e.Run()
		want := []time.Duration{time.Millisecond, mid, 5 * time.Millisecond}
		if fmt.Sprint(fired) != fmt.Sprint(want) {
			t.Errorf("At(%v) after AdvanceTo(3ms): fired %v, want %v", mid, fired, want)
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []time.Duration {
		var e Engine
		var log []time.Duration
		// A little event storm with equal times and cascades.
		for i := 0; i < 50; i++ {
			d := time.Duration(i%7) * time.Microsecond
			e.At(d, func(en *Engine) {
				log = append(log, en.Now())
				if en.Steps()%3 == 0 {
					en.After(2*time.Microsecond, func(en *Engine) {
						log = append(log, en.Now())
					})
				}
			})
		}
		e.Run()
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d", i)
		}
	}
}

// holdDelay is the hold model's pseudo-random reschedule delay: an
// xorshift step mapped onto 1..1024 µs.
func holdDelay(state *uint64) time.Duration {
	*state ^= *state << 13
	*state ^= *state >> 7
	*state ^= *state << 17
	return time.Duration(1+*state%1024) * time.Microsecond
}

func TestEngineStepsAllocateNothing(t *testing.T) {
	// Once the queue has grown, scheduling and popping an event moves
	// it by value: a heap that boxes its entries (container/heap's
	// any-typed Push and Pop) would allocate on every step.
	for _, pending := range []int{1, 2, 16} {
		var e Engine
		state := uint64(0x9e3779b97f4a7c15)
		nop := func(*Engine) {}
		for i := 0; i < pending; i++ {
			e.After(holdDelay(&state), nop)
		}
		allocs := testing.AllocsPerRun(1000, func() {
			e.After(holdDelay(&state), nop)
			e.step()
		})
		if allocs != 0 || e.Pending() != pending {
			t.Errorf("pending=%d: %.1f allocations per hold step (pending now %d), want 0",
				pending, allocs, e.Pending())
		}
	}
}

// BenchmarkEngineHold is the classic hold model: the queue starts with
// `pending` events, and every handler reschedules itself a pseudo-random
// delay ahead, so the pending set stays constant. One op is one event;
// the final drain of the pending set is included, a negligible share at
// the default benchtime.
func BenchmarkEngineHold(b *testing.B) {
	for _, pending := range []int{1, 2, 16, 1024} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			var e Engine
			state := uint64(0x9e3779b97f4a7c15)
			left := 0
			var hold Handler
			hold = func(en *Engine) {
				if left > 0 {
					left--
					en.After(holdDelay(&state), hold)
				}
			}
			for i := 0; i < pending; i++ {
				e.After(holdDelay(&state), hold)
			}
			left = b.N
			b.ReportAllocs()
			b.ResetTimer()
			e.Run()
		})
	}
}
