package cluster

import (
	"time"
)

// SyncResult describes one time-synchronization attempt: the per-rank
// start skews (deviation of each rank's actual start from the intended
// common instant) that a subsequently measured collective would suffer.
type SyncResult struct {
	// Skew[r] is rank r's start offset relative to the earliest starter
	// (all values >= 0; a perfectly synchronized start is all zeros).
	Skew []time.Duration
	// MaxSkew is the spread between first and last starter.
	MaxSkew time.Duration
}

func newSyncResult(abs []time.Duration) SyncResult {
	min := abs[0]
	for _, t := range abs[1:] {
		if t < min {
			min = t
		}
	}
	res := SyncResult{Skew: make([]time.Duration, len(abs))}
	for i, t := range abs {
		res.Skew[i] = t - min
		if res.Skew[i] > res.MaxSkew {
			res.MaxSkew = res.Skew[i]
		}
	}
	return res
}

// BarrierSync models the common-but-unreliable approach of starting a
// timed operation right after a barrier (§4.2.1): the residual skew is
// the spread of barrier exit times.
func (m *Machine) BarrierSync() SyncResult {
	defer m.ExactPerRank()() // skews need every rank's exit time
	res := m.Barrier(nil)
	return newSyncResult(res.PerRank)
}

// NaiveClockSync models the broken approach of agreeing on a wall-clock
// start time without estimating per-rank clock offsets: every rank waits
// until its own (unsynchronized) clock reads the target. The resulting
// skew is on the order of the clock offsets themselves — the baseline
// against which DelayWindowSync is the paper's fix.
func (m *Machine) NaiveClockSync(window time.Duration) SyncResult {
	p := len(m.procs)
	startLocal := m.LocalTime(0, m.now) + window
	abs := make([]time.Duration, p)
	for r := 0; r < p; r++ {
		abs[r] = m.GlobalFromLocal(r, startLocal)
	}
	m.now += window
	return newSyncResult(abs)
}

// DelayWindowSync implements the scheme the paper recommends for accurate
// parallel timing (§4.2.1, refs [25, 62]): a master (rank 0) estimates
// every rank's clock offset with `pingRounds` round-trip exchanges
// (offset ≈ remote reading − local midpoint, taking the minimum-RTT
// exchange as least contaminated), then broadcasts a start time `window`
// in the future; every rank busy-waits until its local clock reaches the
// translated instant. The residual skew reflects offset-estimation error,
// clock drift over the window, and clock granularity.
func (m *Machine) DelayWindowSync(window time.Duration, pingRounds int) SyncResult {
	defer m.ExactPerRank()() // the broadcast's per-rank arrivals gate each start
	p := len(m.procs)
	if pingRounds < 1 {
		pingRounds = 1
	}
	// Phase 1: offset estimation per rank (global time advances as the
	// master serially pings each rank).
	offset := make([]time.Duration, p) // estimated offset of rank r's clock vs master's
	for r := 1; r < p; r++ {
		bestRTT := time.Duration(1<<62 - 1)
		var best time.Duration
		for i := 0; i < pingRounds; i++ {
			t0 := m.now
			fwd := m.msgLatencySrc(m.rng, &m.fstats, 0, r, 16, t0)
			arrive := t0 + fwd
			remote := m.LocalTime(r, arrive)
			back := m.msgLatencySrc(m.rng, &m.fstats, r, 0, 16, arrive)
			t1 := arrive + back
			m.now = t1
			rtt := t1 - t0
			if rtt < bestRTT {
				bestRTT = rtt
				mid := m.LocalTime(0, t0) + rtt/2
				best = remote - mid
			}
		}
		offset[r] = best
	}
	telMessages.Add(2 * int64(p-1) * int64(pingRounds))

	// Phase 2: broadcast the start time (master-local clock) and wait.
	startLocal0 := m.LocalTime(0, m.now) + window
	bc := m.Bcast(16, nil)
	abs := make([]time.Duration, p)
	for r := 0; r < p; r++ {
		// Rank r waits until its local clock reads startLocal0 + offset[r].
		target := startLocal0 + offset[r]
		abs[r] = m.GlobalFromLocal(r, target)
		// A rank that received the broadcast after the start time begins
		// immediately (late start).
		recvAt := m.now + bc.PerRank[r]
		if recvAt > abs[r] {
			abs[r] = recvAt
		}
	}
	m.now += window
	return newSyncResult(abs)
}
