// Package desim is a minimal deterministic discrete-event simulation
// engine: an event queue ordered by simulated time with stable FIFO
// tie-breaking, on which the serve package simulates its servers.
// Determinism matters because the repository's experiments must
// reproduce bit-for-bit under a fixed seed (Rule 9 applied to
// ourselves).
//
// The queue is a binary min-heap on (time, insertion seq), so events
// fire in ascending time and, within one instant, in the order they were
// scheduled. The differential fuzz target (FuzzEventOrder) pins that
// order against a container/heap reference. A heap suits the traffic:
// serve keeps at most Servers+1 events pending (two in its benchmark
// workloads), where a sift is one or two comparisons. A calendar queue
// measured 5× slower per event at one pending event and overtook the
// heap only past about 16 (BenchmarkEngineHold; EXPERIMENTS.md).
package desim

import "time"

// Handler is an event callback, invoked with the engine so it can
// schedule follow-up events.
type Handler func(e *Engine)

type event struct {
	at  time.Duration
	seq uint64 // insertion order, breaks time ties deterministically
	fn  Handler
}

// before is the queue order: ascending time, then insertion order.
func (a *event) before(b *event) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// Engine is a single-threaded discrete-event simulator. The zero value
// is ready to use at simulated time zero.
type Engine struct {
	now   time.Duration
	seq   uint64
	steps uint64
	queue []event // binary min-heap under event.before
}

// Now returns the current simulated time.
func (e *Engine) Now() time.Duration { return e.now }

// Steps returns the number of events processed so far.
func (e *Engine) Steps() uint64 { return e.steps }

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.queue) }

// At schedules fn to run at absolute simulated time at. Events scheduled
// in the past run at the current time (time never goes backwards).
func (e *Engine) At(at time.Duration, fn Handler) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	ev := event{at: at, seq: e.seq, fn: fn}
	q := append(e.queue, ev)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
	e.queue = q
}

// After schedules fn to run d after the current simulated time.
func (e *Engine) After(d time.Duration, fn Handler) {
	if d < 0 {
		d = 0
	}
	e.At(e.now+d, fn)
}

// Run processes events until the queue drains, returning the final
// simulated time.
func (e *Engine) Run() time.Duration {
	for len(e.queue) > 0 {
		e.step()
	}
	return e.now
}

// AdvanceTo runs every queued event earlier than t, then sets the clock
// to t (time never goes backwards). Events at exactly t stay queued, so
// whatever the caller does at t — typically feeding an externally
// scheduled arrival — runs before them, as if it had been queued first.
func (e *Engine) AdvanceTo(t time.Duration) {
	for len(e.queue) > 0 && e.queue[0].at < t {
		e.step()
	}
	if t > e.now {
		e.now = t
	}
}

// step pops the earliest event, moves the clock to it and runs it. The
// queue is restored before the handler runs, so the handler may
// schedule freely.
func (e *Engine) step() {
	q := e.queue
	ev := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{} // drop the popped slot's handler reference
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && q[c+1].before(&q[c]) {
				c++
			}
			if !q[c].before(&last) {
				break
			}
			q[i] = q[c]
			i = c
		}
		q[i] = last
	}
	e.queue = q
	e.now = ev.at
	e.steps++
	ev.fn(e)
}
