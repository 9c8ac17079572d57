package cluster

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/rng"
	"repro/internal/stats"
)

// This file is the batched collective evaluation engine. The design has
// three load-bearing rules:
//
//  1. Stream discipline — every noise/fault draw a collective makes is
//     attributed to the RECEIVER of the message and comes from that
//     rank's private PCG stream, reseeded at each collective invocation
//     as a pure function of (machine seed, invocation number, rank) via
//     the splitmix64 finalizer. Draw sequences therefore depend only on
//     each rank's own message order, never on the order ranks are
//     evaluated in — which is what makes rule 2 sound.
//
//  2. Level batching — a binomial tree (and each dissemination/ring/
//     pairwise round) is evaluated one level at a time; within a level
//     every message has a distinct receiver and writes disjoint state,
//     so the level can be chunked into batches and spread over workers
//     with bit-identical results for any chunk size and
//     CollectiveWorkers setting.
//
//  3. Allocation-flat results — O(P) working arrays come from a
//     machine-owned buffer pool reused across invocations, and summary
//     mode replaces the O(P) PerRank result with a fixed-size
//     stats.LogHistogram, so steady-state bytes per collective are
//     independent of P.

// ResultMode selects how collectives report per-rank completion times.
type ResultMode int

const (
	// ModeAuto reports exact PerRank below SummaryThreshold ranks and a
	// summary histogram at or above it.
	ModeAuto ResultMode = iota
	// ModePerRank always materializes the exact PerRank slice.
	ModePerRank
	// ModeSummary always returns the fixed-size summary.
	ModeSummary
)

// String returns the mode name as accepted by the CLI -mode flag.
func (r ResultMode) String() string {
	switch r {
	case ModeAuto:
		return "auto"
	case ModePerRank:
		return "perrank"
	case ModeSummary:
		return "summary"
	}
	return fmt.Sprintf("ResultMode(%d)", int(r))
}

// ParseResultMode parses a -mode flag value.
func ParseResultMode(s string) (ResultMode, error) {
	switch s {
	case "auto", "":
		return ModeAuto, nil
	case "perrank", "exact":
		return ModePerRank, nil
	case "summary":
		return ModeSummary, nil
	}
	return ModeAuto, fmt.Errorf("cluster: unknown result mode %q (auto|perrank|summary)", s)
}

// DefaultSummaryThreshold is the rank count at which ModeAuto stops
// materializing O(P) PerRank slices: 2^16 keeps every historical
// experiment in this repository (≤ thousands of ranks) bit-identical
// while million-rank sweeps go allocation-flat.
const DefaultSummaryThreshold = 1 << 16

// summaryFor reports whether a collective over p ranks should return a
// summary instead of exact per-rank times.
func (m *Machine) summaryFor(p int) bool {
	if m.forceExact > 0 {
		return false
	}
	switch m.cfg.ResultMode {
	case ModePerRank:
		return false
	case ModeSummary:
		return true
	}
	th := m.cfg.SummaryThreshold
	if th <= 0 {
		th = DefaultSummaryThreshold
	}
	return p >= th
}

// ExactPerRank forces per-rank collective results (overriding the
// configured ResultMode) until the returned restore function runs. It
// nests. Consumers that need every rank's completion time — HPL's panel
// pipeline, the sync schemes — wrap their collective calls in it.
func (m *Machine) ExactPerRank() func() {
	m.forceExact++
	return func() { m.forceExact-- }
}

// beginCollective starts a new collective invocation: it bumps the
// invocation counter and reseeds every rank's stream from
// (seed, invocation, rank) only. Reseeding is O(P) with zero draws from
// the machine stream, so collectives no longer perturb the shared
// stream used by point-to-point paths.
func (m *Machine) beginCollective() {
	m.collSeq++
	if len(m.streams) != len(m.procs) {
		m.streams = make([]rng.Stream, len(m.procs))
	}
	h := rng.Mix64(m.seed ^ rng.Mix64(m.collSeq))
	for r := range m.streams {
		u := uint64(r)
		m.streams[r].Seed(rng.Mix64(h^u), rng.Mix64(h+0x9e3779b97f4a7c15*(u+1)))
	}
}

// grab returns a zeroed []time.Duration of length n from the machine's
// buffer pool; release returns it. All collectives on one machine use
// the same length, so steady state allocates nothing.
func (m *Machine) grab(n int) []time.Duration {
	if k := len(m.bufPool) - 1; k >= 0 {
		b := m.bufPool[k]
		m.bufPool = m.bufPool[:k]
		if cap(b) >= n {
			b = b[:n]
			for i := range b {
				b[i] = 0
			}
			return b
		}
	}
	return make([]time.Duration, n)
}

func (m *Machine) release(b []time.Duration) {
	m.bufPool = append(m.bufPool, b)
}

// minParallelRound is the level size below which goroutine fan-out
// costs more than it saves; smaller levels run serially (results are
// identical either way — this is purely a scheduling cutoff).
const minParallelRound = 2048

// collectiveBatch is the chunk of consecutive level messages a worker
// evaluates before striding to its next chunk (results are identical
// for every chunk size).
const collectiveBatch = 1024

// defaultCollectiveWorkers resolves CollectiveWorkers == 0 for a level
// of n messages: min(GOMAXPROCS, n/minParallelRound), so each worker
// owns at least one minimum-size run and small levels never fan out.
// The engine is race-clean by construction (per-rank streams, static
// partitions) and bit-identical for every worker count, so parallel is
// safe as the default; an explicit negative (or 1) still forces serial.
func defaultCollectiveWorkers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if per := n / minParallelRound; w > per {
		w = per
	}
	if w < 1 {
		w = 1
	}
	return w
}

// collectiveWorkers resolves the configured worker count for a level of
// n messages. It exists so runLevel's `workers` is assigned exactly
// once: the level goroutines capture the variable, and a reassigned
// capture is moved to the heap — one allocation per level, even on the
// serial path, which would break the allocation-flat summary guarantee
// (TestSummaryAllocsFlat).
func collectiveWorkers(cfg, n int) int {
	if cfg != 0 {
		return cfg
	}
	return defaultCollectiveWorkers(n)
}

// runLevel evaluates one tree level / round of n messages. fn(i, fs)
// must write only state owned by message i (its receiver's slots plus
// its unique sender's finish slot) and draw only from the receiver's
// stream, which makes any static partition of [0,n) race-free and
// result-identical. Fault counts accumulate into per-worker sinks and
// are summed after the barrier — integer sums are order-independent.
func (m *Machine) runLevel(n int, fn func(i int, fs *FaultStats)) {
	if n <= 0 {
		return
	}
	telMessages.Add(int64(n))
	workers := collectiveWorkers(m.cfg.CollectiveWorkers, n)
	if workers <= 1 || n < minParallelRound {
		for i := 0; i < n; i++ {
			fn(i, &m.fstats)
		}
		return
	}
	if len(m.wstats) < workers {
		m.wstats = make([]FaultStats, workers)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fs := &m.wstats[w]
			for lo := w * collectiveBatch; lo < n; lo += workers * collectiveBatch {
				hi := lo + collectiveBatch
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					fn(i, fs)
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		m.fstats.Retransmits += m.wstats[w].Retransmits
		m.fstats.LostMessages += m.wstats[w].LostMessages
		m.fstats.CrashTimeouts += m.wstats[w].CrashTimeouts
		m.wstats[w] = FaultStats{}
	}
}

// finishResult packages per-rank completion times (a scratch buffer the
// caller releases) into a CollectiveResult, computing the cached Max in
// the same single pass — no later rescans. Exact mode copies into a
// fresh PerRank slice; summary mode records into a fixed-size
// LogHistogram instead of materializing anything O(P).
func (m *Machine) finishResult(fin []time.Duration, root time.Duration) CollectiveResult {
	res := CollectiveResult{Root: root, Ranks: len(fin)}
	var max time.Duration
	if m.summaryFor(len(fin)) {
		h := new(stats.LogHistogram)
		for _, d := range fin {
			if d > max {
				max = d
			}
			h.Record(d.Seconds())
		}
		res.Summary = h
	} else {
		res.PerRank = make([]time.Duration, len(fin))
		copy(res.PerRank, fin)
		for _, d := range fin {
			if d > max {
				max = d
			}
		}
	}
	res.max = max
	return res
}

// unitResult is the p == 1 degenerate collective: no messages, no
// draws, completion at t = 0.
func (m *Machine) unitResult() CollectiveResult {
	var fin [1]time.Duration
	return m.finishResult(fin[:], 0)
}
