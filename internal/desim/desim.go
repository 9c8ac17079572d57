// Package desim is a minimal deterministic discrete-event simulation
// engine: an event queue ordered by simulated time with stable FIFO
// tie-breaking, on which the cluster package builds its simulated
// parallel machine. Determinism matters because the repository's
// experiments must reproduce bit-for-bit under a fixed seed (Rule 9
// applied to ourselves).
//
// The queue is a calendar queue (Brown 1988): events hash into time
// buckets of adaptive width, insertion is O(1) amortized, and dequeue
// harvests whole same-timestamp batches from the current bucket instead
// of sifting a binary heap once per event. The observable order is
// exactly the heap order — ascending (time, insertion seq) — which the
// differential fuzz target (FuzzEventOrder) pins against a reference
// heap implementation.
package desim

import (
	"cmp"
	"slices"
	"time"
)

// Handler is an event callback, invoked with the engine so it can
// schedule follow-up events.
type Handler func(e *Engine)

type event struct {
	at  time.Duration
	seq uint64 // insertion order, breaks time ties deterministically
	fn  Handler
}

const (
	minBuckets   = 64
	defaultWidth = int64(time.Microsecond)
)

// Engine is a single-threaded discrete-event simulator. The zero value
// is ready to use at simulated time zero.
type Engine struct {
	now   time.Duration
	seq   uint64
	steps uint64

	// Calendar queue state. Events live in buckets[day&(len-1)] where
	// day = at/width; curDay is the dequeue cursor. Every queued event
	// has day >= curDay: insert rewinds the cursor, and findDay and
	// resize only move it up to the earliest event's day.
	buckets [][]event
	width   int64 // bucket width in nanoseconds
	curDay  int64
	size    int

	batch []event // same-timestamp harvest scratch, reused across steps
	all   []event // resize scratch, reused across resizes
}

// Now returns the current simulated time.
func (e *Engine) Now() time.Duration { return e.now }

// Steps returns the number of events processed so far.
func (e *Engine) Steps() uint64 { return e.steps }

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return e.size }

// At schedules fn to run at absolute simulated time at. Events scheduled
// in the past run at the current time (time never goes backwards).
func (e *Engine) At(at time.Duration, fn Handler) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.insert(event{at: at, seq: e.seq, fn: fn})
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
	for e.size > 0 {
		e.stepBatch(1<<62 - 1)
	}
	return e.now
}

// AdvanceTo runs every queued event earlier than t, then sets the clock
// to t (time never goes backwards). Events at exactly t stay queued, so
// whatever the caller does at t — typically feeding an externally
// scheduled arrival — runs before them, as if it had been queued first.
func (e *Engine) AdvanceTo(t time.Duration) {
	if t <= e.now {
		return
	}
	for e.size > 0 && e.stepBatch(t-1) {
	}
	e.now = t
}

func (e *Engine) init() {
	e.buckets = make([][]event, minBuckets)
	e.width = defaultWidth
	e.curDay = int64(e.now) / e.width
}

func (e *Engine) insert(ev event) {
	if e.buckets == nil {
		e.init()
	}
	if e.size >= 2*len(e.buckets) {
		e.resize(2 * len(e.buckets))
	}
	day := int64(ev.at) / e.width
	if day < e.curDay {
		// A findDay peek past the clock (AdvanceTo stopping short of the
		// next event) may have left the cursor beyond this event's day:
		// rewind it, or the event would fire after later ones.
		e.curDay = day
	}
	idx := day & int64(len(e.buckets)-1)
	e.buckets[idx] = append(e.buckets[idx], ev)
	e.size++
}

// resize rebuilds the calendar with n buckets and a width matched to the
// current event spread, so the average bucket holds O(1) events of the
// current "day", and moves the cursor to the earliest event's day. All
// decisions are pure functions of the queue contents and the clock,
// keeping replay deterministic. The bucket array and the gather scratch
// are reused when the bucket count is unchanged.
func (e *Engine) resize(n int) {
	all := e.all[:0]
	for _, b := range e.buckets {
		all = append(all, b...)
	}
	e.all = all
	// Width estimate: spread of pending timestamps divided by count, so
	// one day holds roughly one event. A queue holding one instant has
	// no spread; its distance from the clock stands in.
	minAt, maxAt := int64(1<<62-1), int64(0)
	for _, ev := range all {
		minAt = min(minAt, int64(ev.at))
		maxAt = max(maxAt, int64(ev.at))
	}
	lo := minAt
	if maxAt == minAt {
		lo = int64(e.now)
	}
	w := defaultWidth
	if len(all) > 0 && maxAt > lo {
		w = max((maxAt-lo)/int64(len(all)), 1)
	}
	if n == len(e.buckets) {
		for i := range e.buckets {
			e.buckets[i] = e.buckets[i][:0]
		}
	} else {
		e.buckets = make([][]event, n)
	}
	e.width = w
	e.curDay = int64(e.now) / w
	if len(all) > 0 {
		e.curDay = minAt / w
	}
	mask := int64(n - 1)
	for _, ev := range all {
		idx := (int64(ev.at) / w) & mask
		e.buckets[idx] = append(e.buckets[idx], ev)
	}
}

// findDay advances the cursor to the day holding the earliest queued
// event and returns that event's timestamp. It scans forward bucket by
// bucket. A fruitless full revolution (every event more than one
// calendar year away) means the width no longer fits the queue — a
// sparse queue never triggers a size-driven resize — so the width is
// re-estimated from the pending spread, which also moves the cursor to
// the earliest event's day, and the scan resumes there.
func (e *Engine) findDay() time.Duration {
	for {
		n := int64(len(e.buckets))
		mask := n - 1
		for scanned := int64(0); scanned < n; scanned++ {
			var best time.Duration = -1
			for _, ev := range e.buckets[e.curDay&mask] {
				if int64(ev.at)/e.width == e.curDay && (best < 0 || ev.at < best) {
					best = ev.at
				}
			}
			if best >= 0 {
				return best
			}
			e.curDay++
		}
		e.resize(len(e.buckets))
	}
}

// stepBatch harvests every event sharing the earliest timestamp <=
// deadline and runs them in insertion order — one sweep per simulated
// instant rather than one heap pop per event. Handlers that schedule
// more work at the same instant extend the batch (still in seq order),
// exactly matching reference heap semantics. Returns false if the
// earliest event lies beyond the deadline.
func (e *Engine) stepBatch(deadline time.Duration) bool {
	at := e.findDay()
	if at > deadline {
		return false
	}
	e.now = at
	mask := int64(len(e.buckets) - 1)
	for {
		// Harvest all events at `at` from the current-day bucket. The
		// bucket is re-fetched each pass: handlers may have inserted (and
		// possibly resized) during the previous pass.
		b := e.buckets[e.curDay&mask]
		e.batch = e.batch[:0]
		kept := b[:0]
		for _, ev := range b {
			if ev.at == at {
				e.batch = append(e.batch, ev)
			} else {
				kept = append(kept, ev)
			}
		}
		if len(e.batch) == 0 {
			return true
		}
		e.buckets[e.curDay&mask] = kept
		e.size -= len(e.batch)
		// Bucket order is insertion order except after a resize, which
		// may interleave; restore the FIFO contract explicitly.
		slices.SortFunc(e.batch, func(a, b event) int { return cmp.Compare(a.seq, b.seq) })
		for i := range e.batch {
			e.steps++
			e.batch[i].fn(e)
		}
		if e.size < len(e.buckets)/4 && len(e.buckets) > minBuckets {
			e.resize(len(e.buckets) / 2)
			mask = int64(len(e.buckets) - 1)
		}
	}
}
