// Package counters provides software performance counters for Go
// programs — this repository's analogue of LibSciBench's PAPI hardware
// counter support: per-measurement deltas of allocation volume, heap
// objects, GC cycles and GC pause time, collected around a measured
// region. Counting *what happened* alongside *how long it took* lets the
// analysis separate deterministic cost metrics (allocations are usually
// deterministic; Rule 5) from nondeterministic time.
package counters

import (
	"fmt"
	"runtime"
	"time"
)

// Snapshot is a point-in-time reading of the runtime counters.
type Snapshot struct {
	AllocBytes uint64 // cumulative bytes allocated
	Mallocs    uint64 // cumulative heap objects allocated
	GCCycles   uint32 // completed GC cycles
	GCPause    time.Duration
}

// Read captures the current counter values.
func Read() Snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return Snapshot{
		AllocBytes: ms.TotalAlloc,
		Mallocs:    ms.Mallocs,
		GCCycles:   ms.NumGC,
		GCPause:    time.Duration(ms.PauseTotalNs),
	}
}

// Delta is the counter change across a measured region.
type Delta struct {
	AllocBytes uint64
	Mallocs    uint64
	GCCycles   uint32
	GCPause    time.Duration
	Elapsed    time.Duration
}

// String renders the delta compactly.
func (d Delta) String() string {
	return fmt.Sprintf("%v elapsed, %d B / %d objects allocated, %d GC cycles (%v pause)",
		d.Elapsed, d.AllocBytes, d.Mallocs, d.GCCycles, d.GCPause)
}

// Sub computes after − before with the elapsed wall time.
func Sub(before, after Snapshot, elapsed time.Duration) Delta {
	return Delta{
		AllocBytes: after.AllocBytes - before.AllocBytes,
		Mallocs:    after.Mallocs - before.Mallocs,
		GCCycles:   after.GCCycles - before.GCCycles,
		GCPause:    after.GCPause - before.GCPause,
		Elapsed:    elapsed,
	}
}

// Measure runs fn once and returns its counter delta.
func Measure(fn func()) Delta {
	before := Read()
	start := time.Now()
	fn()
	elapsed := time.Since(start)
	return Sub(before, Read(), elapsed)
}

// Series collects per-invocation deltas over n runs of fn — the raw
// material for checking whether a cost metric is deterministic (Rule 5:
// deterministic metrics are summarized algebraically, not statistically).
func Series(n int, fn func()) []Delta {
	out := make([]Delta, n)
	for i := range out {
		out[i] = Measure(fn)
	}
	return out
}

// AllocsDeterministic reports whether the allocation byte counts agree
// across all deltas within tolBytes — the §3.1.1 determinism test for a
// cost metric. A tolerance is needed because Go's counters are
// process-global: the runtime and other goroutines contribute small,
// variable amounts on top of the measured region's own allocations.
func AllocsDeterministic(ds []Delta, tolBytes uint64) bool {
	if len(ds) == 0 {
		return false
	}
	ref := ds[0].AllocBytes
	for _, d := range ds[1:] {
		diff := d.AllocBytes - ref
		if d.AllocBytes < ref {
			diff = ref - d.AllocBytes
		}
		if diff > tolBytes {
			return false
		}
	}
	return true
}

// AllocRates derives the allocation rate (B/s) per delta — a *rate*
// metric that per Rule 3 must be summarized with the harmonic mean (or
// from the raw costs).
func AllocRates(ds []Delta) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		if d.Elapsed > 0 {
			out[i] = float64(d.AllocBytes) / d.Elapsed.Seconds()
		}
	}
	return out
}
