package desim

import (
	"container/heap"
	"fmt"
	"testing"
	"time"
)

// refEngine is a container/heap implementation, kept verbatim as the
// ordering oracle for differential fuzzing. Its observable contract —
// events fire in ascending (at, seq) order, past schedules clamp to
// now — is what Engine must reproduce.
type refEngine struct {
	now   time.Duration
	seq   uint64
	queue refQueue
	steps uint64
}

type refEvent struct {
	at  time.Duration
	seq uint64
	fn  func(*refEngine)
}

type refQueue []refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x interface{}) { *q = append(*q, x.(refEvent)) }
func (q *refQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

func (e *refEngine) At(at time.Duration, fn func(*refEngine)) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	heap.Push(&e.queue, refEvent{at: at, seq: e.seq, fn: fn})
}

func (e *refEngine) After(d time.Duration, fn func(*refEngine)) {
	if d < 0 {
		d = 0
	}
	e.At(e.now+d, fn)
}

func (e *refEngine) Run() time.Duration {
	for len(e.queue) > 0 {
		ev := heap.Pop(&e.queue).(refEvent)
		e.now = ev.at
		e.steps++
		ev.fn(e)
	}
	return e.now
}

func (e *refEngine) AdvanceTo(t time.Duration) {
	for len(e.queue) > 0 && e.queue[0].at < t {
		ev := heap.Pop(&e.queue).(refEvent)
		e.now = ev.at
		e.steps++
		ev.fn(e)
	}
	if t > e.now {
		e.now = t
	}
}

// fuzzOp is one decoded instruction. The fuzz input is a byte string
// decoded 5 bytes at a time: [kind, t0, t1, cascadeDelay, cascadeCount].
// kind selects an AdvanceTo step (kind&6 == 6) or a schedule, and for a
// schedule At vs After and whether the handler schedules follow-ups, so
// partial runs interleave with further scheduling. Times deliberately
// collide often (mod a small range) to stress FIFO tie-breaking.
type fuzzOp struct {
	advance  bool
	after    bool
	at       time.Duration
	cascade  time.Duration
	children int
}

func decodeOps(data []byte) []fuzzOp {
	var ops []fuzzOp
	for i := 0; i+5 <= len(data) && len(ops) < 512; i += 5 {
		kind := data[i]
		t := (time.Duration(data[i+1])<<8 | time.Duration(data[i+2])) % 4096 * time.Microsecond
		cd := time.Duration(data[i+3]) % 16 * time.Microsecond
		n := int(data[i+4]) % 4
		ops = append(ops, fuzzOp{
			advance:  kind&6 == 6,
			after:    kind&1 == 1,
			at:       t,
			cascade:  cd,
			children: n,
		})
	}
	return ops
}

// runEngine executes the decoded schedule on Engine, recording the (time, id) trace of every fired event.
func runEngine(ops []fuzzOp, deadline time.Duration) (trace []string, now time.Duration, pending int, steps uint64) {
	e := new(Engine)
	id := 0
	var mk func(op fuzzOp, depth int) Handler
	mk = func(op fuzzOp, depth int) Handler {
		myID := id
		id++
		return func(e *Engine) {
			trace = append(trace, fmt.Sprintf("%d@%d", myID, e.Now()))
			if depth < 2 {
				for c := 0; c < op.children; c++ {
					e.After(op.cascade*time.Duration(c), mk(op, depth+1))
				}
			}
		}
	}
	for _, op := range ops {
		switch {
		case op.advance:
			e.AdvanceTo(op.at)
			trace = append(trace, fmt.Sprintf("advance@%d/%d", e.Now(), e.Pending()))
		case op.after:
			e.After(op.at, mk(op, 0))
		default:
			e.At(op.at, mk(op, 0))
		}
	}
	if deadline >= 0 {
		e.AdvanceTo(deadline)
		now = e.Now()
	} else {
		now = e.Run()
	}
	return trace, now, e.Pending(), e.Steps()
}

// runHeap executes the identical schedule on the reference engine.
func runHeap(ops []fuzzOp, deadline time.Duration) (trace []string, now time.Duration, pending int, steps uint64) {
	e := new(refEngine)
	id := 0
	var mk func(op fuzzOp, depth int) func(*refEngine)
	mk = func(op fuzzOp, depth int) func(*refEngine) {
		myID := id
		id++
		return func(e *refEngine) {
			trace = append(trace, fmt.Sprintf("%d@%d", myID, e.now))
			if depth < 2 {
				for c := 0; c < op.children; c++ {
					e.After(op.cascade*time.Duration(c), mk(op, depth+1))
				}
			}
		}
	}
	for _, op := range ops {
		switch {
		case op.advance:
			e.AdvanceTo(op.at)
			trace = append(trace, fmt.Sprintf("advance@%d/%d", e.now, len(e.queue)))
		case op.after:
			e.After(op.at, mk(op, 0))
		default:
			e.At(op.at, mk(op, 0))
		}
	}
	if deadline >= 0 {
		e.AdvanceTo(deadline)
		now = e.now
	} else {
		now = e.Run()
	}
	return trace, now, len(e.queue), e.steps
}

func diffEngines(t *testing.T, data []byte, deadline time.Duration) {
	t.Helper()
	ops := decodeOps(data)
	ct, cn, cp, cs := runEngine(ops, deadline)
	ht, hn, hp, hs := runHeap(ops, deadline)
	if len(ct) != len(ht) {
		t.Fatalf("deadline %v: engine fired %d events, reference fired %d", deadline, len(ct), len(ht))
	}
	for i := range ct {
		if ct[i] != ht[i] {
			t.Fatalf("deadline %v: trace diverges at %d: engine %q, reference %q", deadline, i, ct[i], ht[i])
		}
	}
	if cn != hn {
		t.Fatalf("deadline %v: final time: engine %v, reference %v", deadline, cn, hn)
	}
	if cp != hp {
		t.Fatalf("deadline %v: pending: engine %d, reference %d", deadline, cp, hp)
	}
	if cs != hs {
		t.Fatalf("deadline %v: steps: engine %d, reference %d", deadline, cs, hs)
	}
}

// FuzzEventOrder differentially fuzzes Engine against the
// container/heap reference: same schedule with interleaved
// AdvanceTo steps, same trace, same final clock, same pending count —
// for full runs and for a final AdvanceTo at an input-derived deadline.
func FuzzEventOrder(f *testing.F) {
	// Seed corpus: empty, single event, heavy timestamp collisions,
	// cascades at same instant, a wide time spread, a mixed schedule
	// exercising At-in-the-past clamping, and events scheduled between
	// the clock and a queued event after a partial run (1 ms and 4 ms
	// queued, advance to 2 ms, then 3 ms or 2.5 ms — once fired after
	// 4 ms).
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 0, 0})
	f.Add([]byte{1, 0, 5, 0, 3, 1, 0, 5, 0, 3, 0, 0, 5, 0, 3})
	f.Add([]byte{0, 0, 9, 0, 3, 0, 0, 9, 0, 3, 0, 0, 9, 0, 3, 0, 0, 9, 0, 3})
	f.Add([]byte{0, 15, 255, 15, 2, 0, 0, 1, 1, 1, 1, 7, 7, 3, 3, 0, 15, 0, 0, 0})
	f.Add(func() []byte {
		var b []byte
		for i := 0; i < 64; i++ {
			b = append(b, byte(i%2), byte(i), byte(i*37), byte(i%16), byte(i%4))
		}
		return b
	}())
	f.Add([]byte{0, 0x03, 0xe8, 0, 0, 0, 0x0f, 0xa0, 0, 0, 6, 0x07, 0xd0, 0, 0, 0, 0x0b, 0xb8, 0, 0})
	f.Add([]byte{0, 0x03, 0xe8, 0, 0, 0, 0x0f, 0xa0, 0, 0, 6, 0x07, 0xd0, 0, 0, 0, 0x09, 0xc4, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		diffEngines(t, data, -1)
		// Also check partial execution: deadline derived from input so
		// the cut point varies.
		var dl time.Duration
		for _, b := range data {
			dl = dl*3 + time.Duration(b)
		}
		diffEngines(t, data, (dl%4096)*time.Microsecond)
	})
}

// TestEngineMatchesHeapReference runs the differential check over a
// deterministic schedule family, so the equivalence holds in plain `go
// test` runs even when fuzzing is never invoked.
func TestEngineMatchesHeapReference(t *testing.T) {
	state := uint64(0x9e3779b97f4a7c15)
	next := func() byte {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return byte(state)
	}
	for trial := 0; trial < 50; trial++ {
		n := 5 * (trial + 1)
		data := make([]byte, n)
		for i := range data {
			data[i] = next()
		}
		diffEngines(t, data, -1)
		diffEngines(t, data, time.Duration(trial)*257*time.Microsecond)
	}
}
