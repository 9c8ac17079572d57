package workloads

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cluster"
)

// HPLConfig describes a distributed High-Performance-Linpack-style run on
// the simulated cluster: problem size N, block size NB, and a P×Q process
// grid. The execution model follows HPL's structure — for each of the
// N/NB panels: factor the panel (one process column), broadcast it, then
// update the trailing submatrix on all processes — with all compute and
// communication times drawn from the machine's noise models.
type HPLConfig struct {
	N  int // matrix dimension
	NB int // panel width
	P  int // process-grid rows
	Q  int // process-grid cols

	// RunSigma models run-to-run system-state variability (different
	// batch allocations, global network load): each run in HPLSeries is
	// scaled by an exp(RunSigma·Z) factor. The paper ran each HPL
	// experiment in a fresh allocation, which dominates the ≈20% spread
	// of Fig 1. Zero disables the effect.
	RunSigma float64
	// RunSkew adds a one-sided exp(RunSkew·|Z|) slowdown per run —
	// congestion and bad placements only ever delay, producing the
	// right-skewed completion-time distribution of Fig 1.
	RunSkew float64
}

// lookahead is the fraction of panel-factorization time that remains on
// the critical path: HPL overlaps factorization of panel k+1 with the
// trailing update of panel k (the "lookahead" optimization), hiding most
// of the serialized work.
const lookahead = 0.3

// Ranks returns the number of processes the grid needs.
func (c HPLConfig) Ranks() int { return c.P * c.Q }

// Validate checks the configuration.
func (c HPLConfig) Validate() error {
	if c.N <= 0 || c.NB <= 0 || c.P <= 0 || c.Q <= 0 {
		return errors.New("workloads: HPL config fields must be positive")
	}
	if c.NB > c.N {
		return fmt.Errorf("workloads: NB %d > N %d", c.NB, c.N)
	}
	return nil
}

// HPLResult is one simulated HPL run.
type HPLResult struct {
	Completion time.Duration // wall time of the slowest process
	Flops      float64       // credited operation count (2/3·N³ + 3/2·N²)
}

// TflopRate returns the achieved rate in Tflop/s.
func (r HPLResult) TflopRate() float64 {
	if r.Completion <= 0 {
		return 0
	}
	return r.Flops / r.Completion.Seconds() / 1e12
}

// RunHPL simulates one HPL execution on the machine. The machine must
// have exactly cfg.Ranks() ranks. Each process's trailing update for
// panel k may start only after it received panel k and finished its
// panel k−1 work, so a slow process (noise, daemons) delays its
// column/row neighbours the way real HPL runs lose performance to system
// noise.
func RunHPL(m *cluster.Machine, cfg HPLConfig) (HPLResult, error) {
	if err := cfg.Validate(); err != nil {
		return HPLResult{}, err
	}
	if m.Ranks() != cfg.Ranks() {
		return HPLResult{}, fmt.Errorf("workloads: machine has %d ranks, grid needs %d",
			m.Ranks(), cfg.Ranks())
	}
	ranks := cfg.Ranks()
	panels := cfg.N / cfg.NB

	// The panel pipeline gates each rank's update on its own broadcast
	// arrival, so summary-mode collectives are not enough here.
	defer m.ExactPerRank()()

	// free[r] is the simulated time when rank r finished all assigned
	// work so far; panels run in order, each starting from it.
	free := make([]time.Duration, ranks)

	nf := float64(cfg.N)
	nbf := float64(cfg.NB)
	for k := 0; k < panels; k++ {
		remaining := nf - float64(k)*nbf
		if remaining <= 0 {
			break
		}
		// Panel factorization: the owning column does ~remaining·NB²
		// flops; it is serialized on the owner.
		owner := k % ranks
		factorFlops := remaining * nbf * nbf / 2

		// Trailing update per process: the 2·remaining²·NB flops of the
		// rank-NB update, split across the grid.
		updateFlops := 2 * remaining * remaining * nbf / float64(ranks)

		// Factor on the owner; only the non-overlapped fraction of
		// the factorization blocks the pipeline (lookahead).
		start := free[owner]
		dur := m.ComputeTime(owner, lookahead*factorFlops, start)
		factorDone := start + dur

		// Broadcast the panel (NB·remaining/P doubles ≈ payload per
		// process column; modeled as one collective of the panel).
		payload := int(nbf * remaining / float64(cfg.P) * 8)
		bc := m.Bcast(payload, nil)

		// Every rank updates once it has the panel and is free.
		for r := 0; r < ranks; r++ {
			avail := factorDone + bc.PerRank[r]
			if free[r] > avail {
				avail = free[r]
			}
			free[r] = avail + m.ComputeTime(r, updateFlops, avail)
		}
	}

	var maxT time.Duration
	for _, t := range free {
		if t > maxT {
			maxT = t
		}
	}
	// The solve phase (O(N²)) adds a small coda on the critical path.
	solve := m.ComputeTime(0, 2*nf*nf, maxT)
	maxT += solve
	return HPLResult{Completion: maxT, Flops: LUFlops(cfg.N)}, nil
}

// HPLSeries runs `runs` back-to-back HPL executions (advancing machine
// time between runs so time-correlated noise decorrelates, and applying
// the per-run allocation factor when cfg.RunSigma > 0) and returns the
// completion times in seconds — the dataset behind Figure 1.
func HPLSeries(m *cluster.Machine, cfg HPLConfig, runs int) ([]float64, []HPLResult, error) {
	times := make([]float64, 0, runs)
	results := make([]HPLResult, 0, runs)
	for i := 0; i < runs; i++ {
		res, err := RunHPL(m, cfg)
		if err != nil {
			return nil, nil, err
		}
		factor := 1.0
		if cfg.RunSigma > 0 {
			factor *= m.Lognormal(cfg.RunSigma)
		}
		if cfg.RunSkew > 0 {
			factor *= m.HalfLognormal(cfg.RunSkew)
		}
		res.Completion = time.Duration(float64(res.Completion) * factor)
		times = append(times, res.Completion.Seconds())
		results = append(results, res)
		m.Advance(res.Completion + time.Second)
	}
	return times, results, nil
}
