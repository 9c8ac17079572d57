// Package serve implements deterministic open-loop service workloads:
// seeded arrival-schedule generators (Poisson, multi-period diurnal,
// bursty ON/OFF) feeding simulated servers with bounded queues and
// size/deadline batching on the desim calendar queue, with per-request
// latencies recorded into the zero-allocation stats.LogHistogram for
// tail-percentile analysis.
//
// The package exists to measure latency the way the paper demands it be
// measured. A closed-loop load generator — the shape of most benchmark
// loops, where each client waits for a response before issuing its next
// request — silently stops offering load whenever the system stalls, so
// the very requests that would have observed the stall are never sent.
// That is coordinated omission, and it makes reported p99s lies of
// omission (Rule 2: report more than one number; Rule 6: model the
// distribution you actually have). Open-loop arrivals are generated
// from the seed alone, independent of responses, so queueing delay
// during stalls lands in the histogram. CheckCoordinatedOmission runs
// both modes on the identical seeded stall schedule and quantifies the
// gap.
//
// Determinism contract (DESIGN.md §9): a Run is a pure function of its
// Options. The arrival schedule and every per-request service draw are
// derived from (seed, salt, request index) — never from execution order
// — and the simulation itself is a single-threaded discrete-event run,
// so results are bit-identical across worker counts, shard layouts, and
// replays (Rule 9).
package serve

import "fmt"

// OmissionCheck is the result of running the same experiment open- and
// closed-loop: the coordinated-omission audit of Rule 2/6.
type OmissionCheck struct {
	Open   Result
	Closed Result
	// OpenP99/ClosedP99 are the p99 sojourn times (seconds) of each
	// mode; Ratio is Open/Closed — how badly a closed-loop harness
	// would have under-reported the tail on this workload.
	OpenP99   float64
	ClosedP99 float64
	Ratio     float64
}

// CheckCoordinatedOmission runs the experiment described by o twice on
// the identical seeded stall schedule and service model — once
// open-loop, once closed-loop — and reports the tail-latency gap. A
// Ratio near 1 means the workload had no stalls worth omitting; a large
// Ratio is the smoking gun that closed-loop numbers for this system
// are not trustworthy (o.Mode is ignored).
func CheckCoordinatedOmission(o Options) (OmissionCheck, error) {
	o.Hist = nil // each mode needs its own histogram
	o.Mode = OpenLoop
	open, err := Run(o)
	if err != nil {
		return OmissionCheck{}, fmt.Errorf("serve: open-loop run: %w", err)
	}
	o.Mode = ClosedLoop
	closed, err := Run(o)
	if err != nil {
		return OmissionCheck{}, fmt.Errorf("serve: closed-loop run: %w", err)
	}
	chk := OmissionCheck{
		Open:      open,
		Closed:    closed,
		OpenP99:   open.Hist.Quantile(0.99),
		ClosedP99: closed.Hist.Quantile(0.99),
	}
	if chk.ClosedP99 > 0 {
		chk.Ratio = chk.OpenP99 / chk.ClosedP99
	}
	return chk, nil
}
