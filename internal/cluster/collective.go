package cluster

import (
	"math/bits"
	"time"

	"repro/internal/stats"
)

// CollectiveResult reports one collective operation: the global time at
// which every rank completed its part, relative to the operation start.
// Below the summary threshold (see Config.ResultMode) the exact
// per-rank times are materialized; at scale the result instead carries
// a fixed-size log-bucketed histogram, so million-rank collectives
// allocate a constant number of bytes regardless of P.
type CollectiveResult struct {
	// PerRank[r] is rank r's completion time relative to the collective's
	// start (the last moment the rank participates). Nil in summary mode.
	PerRank []time.Duration
	// Root is the completion time at the root (for rooted collectives)
	// or the global maximum (for barriers).
	Root time.Duration
	// Ranks is the number of participating ranks (= len(PerRank) when
	// PerRank is present).
	Ranks int
	// Summary, in summary mode, is the distribution of per-rank
	// completion times in seconds: exact count, sum, min and max, and
	// any quantile within 1/64 relative error.
	Summary *stats.LogHistogram

	max time.Duration // slowest rank, computed during the final level pass
}

// Max returns the slowest rank's completion time, the usual "time of a
// collective" summary (see Fig 5, which plots the maximum across
// processes to assess worst-case performance — Rule 10's example). The
// value is computed once while the result is assembled; calling Max in
// a hot loop no longer rescans O(P) entries.
func (r CollectiveResult) Max() time.Duration {
	if r.max == 0 && len(r.PerRank) > 0 {
		// Hand-assembled results (tests) never went through the engine's
		// final pass; fall back to scanning.
		for _, d := range r.PerRank {
			if d > r.max {
				r.max = d
			}
		}
	}
	return r.max
}

// AppendPerRankSeconds appends the per-rank times in seconds to dst and
// returns the extended slice — the allocation-free form for measurement
// loops that reuse one buffer across repetitions. Summary-mode results
// carry no per-rank data and append nothing (use Summary instead).
func (r CollectiveResult) AppendPerRankSeconds(dst []float64) []float64 {
	for _, d := range r.PerRank {
		dst = append(dst, d.Seconds())
	}
	return dst
}

// PerRankSeconds converts the per-rank times to float64 seconds for the
// statistics layer, allocating a fresh slice each call; hot paths
// should prefer AppendPerRankSeconds.
func (r CollectiveResult) PerRankSeconds() []float64 {
	return r.AppendPerRankSeconds(make([]float64, 0, len(r.PerRank)))
}

// Reduce simulates an MPI_Reduce-style reduction of `bytes` payloads to
// rank 0 over the machine's ranks, starting with the given per-rank
// start skews (nil = perfectly synchronized). It uses the standard
// two-phase algorithm real MPI libraries use for arbitrary process
// counts: ranks beyond the largest power of two 2^K ≤ p first fold their
// values into their partner (rank − 2^K), then a K-round binomial tree
// reduces among the first 2^K ranks.
//
// Transfers follow a rendezvous protocol: a message starts moving only
// once the sender's subtree is combined *and* the receiver has posted the
// matching receive, and receives are posted in program (round) order.
// This serialization is what makes the fold phase cost a full extra
// latency on the critical path, reproducing the measurable advantage of
// powers-of-two process counts (Fig 5).
//
// Evaluation is level-wise: in round j every parent r (a multiple of
// 2^(j+1)) receives from child r+2^j, whose own subtree completed in
// rounds < j, so each level is one batched sweep (see
// collective_engine.go for why this preserves bit-identical output).
func (m *Machine) Reduce(bytes int, skew []time.Duration) CollectiveResult {
	p := len(m.procs)
	if p == 1 {
		return m.unitResult()
	}
	m.beginCollective()
	fin := m.grab(p)
	defer m.release(fin)
	root := m.reduceLevels(bytes, skew, fin)
	return m.finishResult(fin, root)
}

// reduceLevels runs the reduction, writing each rank's completion time
// into fin (zeroed, len p) and returning the root's completion time.
func (m *Machine) reduceLevels(bytes int, skew []time.Duration, fin []time.Duration) time.Duration {
	p := len(m.procs)
	// acc[r] is the time rank r's subtree value is fully combined so
	// far; children finalize strictly before their parent reads them.
	acc := m.grab(p)
	defer m.release(acc)
	if skew != nil {
		copy(acc, skew)
	}
	pow2 := 1 << (bits.Len(uint(p)) - 1)
	extra := p - pow2

	// recv performs one rendezvous receive from src into dst, drawing
	// from dst's stream only.
	recv := func(dst, src int, fs *FaultStats) {
		st := &m.streams[dst]
		sendReady := acc[src] + m.cfg.SendOverhead
		begin := sendReady
		if acc[dst] > begin {
			begin = acc[dst] // receiver posts late: sender blocks
		}
		arrive := begin + m.msgLatencySrc(st, fs, src, dst, bytes, begin)
		if arrive > fin[src] {
			fin[src] = arrive // sender participates until delivery
		}
		if arrive > acc[dst] {
			acc[dst] = arrive
		}
		acc[dst] += m.opCostSrc(st, dst, acc[dst])
	}

	// Fold level: ranks pow2..p-1 push their values into rank − pow2.
	m.runLevel(extra, func(i int, fs *FaultStats) { recv(i, i+pow2, fs) })
	// Binomial levels. step/half mutate between (not during) level runs,
	// so one closure serves every level — per-sweep allocations stay
	// constant in P instead of growing with the tree depth.
	var step, half int
	level := func(k int, fs *FaultStats) {
		r := k * step
		recv(r, r+half, fs)
	}
	for j := 0; 1<<j < pow2; j++ {
		step = 1 << (j + 1)
		half = 1 << j
		m.runLevel(pow2/step, level)
	}
	for r := 0; r < pow2; r++ {
		if acc[r] > fin[r] {
			fin[r] = acc[r]
		}
	}
	return fin[0]
}

// Bcast simulates a binomial-tree broadcast of `bytes` from rank 0 and
// returns per-rank receive-completion times relative to the start.
// Round k's senders (ranks < 2^k) and receivers (ranks 2^k..2^(k+1)-1)
// are disjoint, so each round is one batched level.
func (m *Machine) Bcast(bytes int, skew []time.Duration) CollectiveResult {
	p := len(m.procs)
	if p == 1 {
		return m.unitResult()
	}
	m.beginCollective()
	fin := m.grab(p)
	defer m.release(fin)
	m.bcastLevels(bytes, skew, fin)
	res := m.finishResult(fin, 0)
	res.Root = res.Max()
	return res
}

func (m *Machine) bcastLevels(bytes int, skew []time.Duration, fin []time.Duration) {
	p := len(m.procs)
	have := m.grab(p) // time each rank holds the value (-1 = not yet)
	defer m.release(have)
	for r := 1; r < p; r++ {
		have[r] = -1
	}
	if skew != nil {
		have[0] = skew[0]
	}
	var width int
	level := func(r int, fs *FaultStats) {
		dst := r + width
		if have[r] < 0 {
			return
		}
		sendAt := have[r] + m.cfg.SendOverhead
		if skew != nil && skew[r] > sendAt {
			sendAt = skew[r]
		}
		arrive := sendAt + m.msgLatencySrc(&m.streams[dst], fs, r, dst, bytes, sendAt)
		if skew != nil && skew[dst] > arrive {
			arrive = skew[dst]
		}
		have[dst] = arrive
		if arrive > fin[dst] {
			fin[dst] = arrive
		}
		if sendAt > fin[r] {
			fin[r] = sendAt
		}
	}
	for k := 0; 1<<k < p; k++ {
		width = 1 << k
		n := width
		if n > p-width {
			n = p - width
		}
		m.runLevel(n, level)
	}
}

// Barrier simulates a dissemination barrier: in round k every rank sends
// to (r + 2^k) mod p and proceeds once it hears from (r − 2^k) mod p.
// Per-rank exit times (relative to the start) are returned. Barriers
// synchronize "commonly well enough" (§4.2.1) but give no timing
// guarantee — the returned skew spread is exactly the residual error a
// barrier-synchronized measurement would see. Every rank is a receiver
// exactly once per round, so each round is one batched level of p
// messages.
func (m *Machine) Barrier(skew []time.Duration) CollectiveResult {
	p := len(m.procs)
	if p == 1 {
		return m.unitResult()
	}
	m.beginCollective()
	fin := m.grab(p)
	defer m.release(fin)
	m.barrierLevels(skew, fin)
	res := m.finishResult(fin, 0)
	res.Root = res.Max()
	return res
}

func (m *Machine) barrierLevels(skew []time.Duration, fin []time.Duration) {
	p := len(m.procs)
	cur := m.grab(p)
	next := m.grab(p)
	defer m.release(cur)
	defer m.release(next)
	if skew != nil {
		copy(cur, skew)
	}
	var shift int
	level := func(r int, fs *FaultStats) {
		src := r - shift
		if src < 0 {
			src += p
		}
		sendAt := cur[src] + m.cfg.SendOverhead
		arrive := sendAt + m.msgLatencySrc(&m.streams[r], fs, src, r, 1, sendAt)
		if cur[r] > arrive {
			next[r] = cur[r]
		} else {
			next[r] = arrive
		}
	}
	for k := 0; 1<<k < p; k++ {
		shift = 1 << k
		m.runLevel(p, level)
		cur, next = next, cur
	}
	copy(fin, cur)
}
