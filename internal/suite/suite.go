// Package suite is a SKaMPI-style collective microbenchmark suite built
// on the library — §6 positions LibSciBench as "a building block for a
// new benchmark suite", and this package is that suite: it sweeps
// collectives × process counts × payload sizes on a (simulated) machine,
// measures each configuration with adaptive CI-driven sampling, applies
// delay-window synchronization, summarizes soundly (median + rank CI,
// maximum across processes), and fits the LogP-style model to each
// collective's scaling.
package suite

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Telemetry: worker-pool behaviour, observable without perturbing the
// sweep (internal/telemetry never touches reports or RNG streams). The
// occupancy histogram records how many workers were busy at the instant
// each configuration was claimed — the pool's achieved parallelism.
var (
	telWorkersActive = telemetry.Default().Gauge("suite.workers_active")
	telOccupancy     = telemetry.Default().Histogram("suite.occupancy")
	telConfigs       = telemetry.Default().Counter("suite.configs")
	telConfigUs      = telemetry.Default().Histogram("suite.config_us")
)

// Collective names supported by the suite.
const (
	Reduce    = "reduce"
	Allreduce = "allreduce"
	Bcast     = "bcast"
	Barrier   = "barrier"
	Gather    = "gather"
	Scatter   = "scatter"
	Allgather = "allgather"
	Alltoall  = "alltoall"
)

// AllCollectives lists every supported collective in canonical order.
var AllCollectives = []string{
	Reduce, Allreduce, Bcast, Barrier, Gather, Scatter, Allgather, Alltoall,
}

// Config parametrizes a suite run.
type Config struct {
	Cluster     cluster.Config
	Collectives []string // subset of AllCollectives (nil = all)
	Ranks       []int    // process counts (nil = 2,4,8,16,32)
	Bytes       []int    // payload sizes (nil = 8, 1024)
	MinRuns     int      // minimum repetitions per configuration (default 20)
	MaxRuns     int      // adaptive budget (default 400)
	RelErr      float64  // target relative CI width (default 0.05)
	Confidence  float64  // CI level (default 0.95)
	Seed        uint64
	// Workers bounds how many configurations are measured concurrently.
	// Zero selects GOMAXPROCS; 1 is the serial path. Every configuration's
	// seed is assigned from the canonical sweep order before fan-out, so
	// the Result is bit-identical for every worker count — parallelism
	// buys wall-clock time, never reproducibility (Rule 9).
	Workers int
	// Resilience, when non-nil, arms bench's fault-tolerant collection
	// loop for every configuration: retries, the fault-suspect value
	// ceiling (in µs here, matching the measured unit), and graceful
	// degradation. Rows then carry the per-configuration loss accounting.
	Resilience *bench.Resilience
}

func (c Config) withDefaults() Config {
	if c.Collectives == nil {
		c.Collectives = AllCollectives
	}
	if c.Ranks == nil {
		c.Ranks = []int{2, 4, 8, 16, 32}
	}
	if c.Bytes == nil {
		c.Bytes = []int{8, 1024}
	}
	if c.MinRuns < 5 {
		c.MinRuns = 20
	}
	if c.MaxRuns < c.MinRuns {
		c.MaxRuns = 400
	}
	if c.RelErr <= 0 {
		c.RelErr = 0.05
	}
	if c.Confidence <= 0 || c.Confidence >= 1 {
		c.Confidence = 0.95
	}
	return c
}

// Row is one measured configuration.
type Row struct {
	Collective string
	Ranks      int
	Bytes      int
	N          int     // repetitions actually used
	MedianUs   float64 // median of max-across-ranks, µs
	CILoUs     float64
	CIHiUs     float64
	P99Us      float64
	MaxSkewUs  float64 // residual delay-window start skew
	Converged  bool    // CI target reached within budget
	// Stop is bench's verdict on how collection for this configuration
	// ended (converged, budget exhausted, degraded by loss, interrupted);
	// SamplesLost counts observation slots abandoned by the resilient
	// loop. Rule 4: a degraded row is reported, not hidden.
	Stop        bench.StopReason
	SamplesLost int
}

// Result is a complete suite run.
type Result struct {
	Config Config
	Rows   []Row
	// Models maps collective/bytes to the fitted LogP-style scaling
	// model over the measured process counts.
	Models map[string]model.CollectiveModel
	// Interrupted reports that the sweep was cancelled mid-run: Rows
	// holds every configuration completed before the interruption and
	// the report labels the result partial.
	Interrupted bool
}

// TotalLost sums the per-row resilient-loop loss accounting.
func (r *Result) TotalLost() int {
	n := 0
	for _, row := range r.Rows {
		n += row.SamplesLost
	}
	return n
}

// ErrUnknownCollective reports a collective name outside AllCollectives.
var ErrUnknownCollective = errors.New("suite: unknown collective")

// job is one configuration of the sweep with its precomputed seed. The
// seed table is built from the canonical enumeration order before any
// fan-out, reproducing exactly the seeds the historical serial seed++
// walk assigned — which is what makes the parallel sweep bit-identical
// to the serial one.
type job struct {
	coll  string
	bytes int
	ranks int
	seed  uint64
}

// jobGroup collects the job indices of one (collective, bytes) model
// group in rank order.
type jobGroup struct {
	coll  string
	bytes int
	jobs  []int
}

// enumerate builds the canonical job list and its model groups.
func enumerate(cfg Config) ([]job, []jobGroup) {
	var jobs []job
	var groups []jobGroup
	seed := cfg.Seed
	for _, coll := range cfg.Collectives {
		for _, bytes := range cfg.Bytes {
			if coll == Barrier && bytes != cfg.Bytes[0] {
				continue // barriers carry no payload; measure once
			}
			g := jobGroup{coll: coll, bytes: bytes}
			for _, p := range cfg.Ranks {
				seed++
				g.jobs = append(g.jobs, len(jobs))
				jobs = append(jobs, job{
					coll: coll, bytes: bytes, ranks: p,
					seed: seed,
				})
			}
			groups = append(groups, g)
		}
	}
	return jobs, groups
}

// jobOut is one job's outcome, written by the worker that ran it.
type jobOut struct {
	row  Row
	done bool  // row is valid (includes interrupted rows, per Rule 4)
	err  error // hard (non-cancellation) measurement error
}

// Run executes the suite under ctx on cfg.Workers goroutines. Progress
// rows are streamed to w in canonical sweep order as they complete
// (out-of-order completions are buffered; pass nil to collect silently).
// Cancellation — Ctrl-C, a wall-clock budget — checkpoints the sweep
// instead of discarding it: the partial Result holds every completed
// configuration, is marked Interrupted, and is returned with a nil
// error. For a fixed Config the Result is bit-identical for every
// worker count.
func Run(ctx context.Context, cfg Config, w io.Writer) (*Result, error) {
	cfg = cfg.withDefaults()
	if ctx == nil {
		ctx = context.Background()
	}
	for _, c := range cfg.Collectives {
		if !known(c) {
			return nil, fmt.Errorf("%w: %q", ErrUnknownCollective, c)
		}
	}
	jobs, groups := enumerate(cfg)
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers < 1 {
		workers = 1
	}

	sctx, sweepSpan := telemetry.StartSpan(ctx, "sweep",
		fmt.Sprintf("%d configurations, %d workers", len(jobs), workers))
	defer sweepSpan.End()

	// runCtx aborts in-flight configurations when a sibling hits a hard
	// error; outer-ctx cancellation keeps its distinct meaning (clean
	// interruption with checkpointed rows).
	runCtx, cancelRun := context.WithCancel(sctx)
	defer cancelRun()

	outs := make([]jobOut, len(jobs))
	var next atomic.Int64 // job claim counter: in claim order == canonical order
	var stopped atomic.Bool
	completions := make(chan int, len(jobs))
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if stopped.Load() || runCtx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				j := jobs[i]
				telOccupancy.Observe(float64(telWorkersActive.Add(1)))
				jctx, span := telemetry.StartSpan(runCtx, "config",
					fmt.Sprintf("%s p=%d %dB", j.coll, j.ranks, j.bytes))
				start := time.Now()
				row, err := measure(jctx, cfg, j.coll, j.ranks, j.bytes, j.seed)
				span.End()
				telConfigUs.Observe(telemetry.Us(time.Since(start)))
				telWorkersActive.Add(-1)
				telConfigs.Inc()
				switch {
				case err != nil && ctx.Err() != nil:
					// Cancelled before this configuration retained an
					// analyzable sample: the completed rows stand.
					stopped.Store(true)
				case err != nil && runCtx.Err() != nil:
					// Aborted by a sibling's hard error; that error wins.
				case err != nil:
					outs[i].err = err
					stopped.Store(true)
					cancelRun()
				default:
					outs[i] = jobOut{row: row, done: true}
					if row.Stop == bench.StopInterrupted {
						stopped.Store(true)
					}
				}
				completions <- i
			}
		}()
	}
	go func() {
		wg.Wait()
		close(completions)
	}()

	// Ordered progress streaming: a line is printed only once every
	// earlier job has completed, so w sees canonical sweep order however
	// the pool interleaves.
	finished := make([]bool, len(jobs))
	nextFlush := 0
	flush := func(gaps bool) {
		for nextFlush < len(jobs) {
			if !finished[nextFlush] {
				if !gaps {
					return
				}
				nextFlush++
				continue
			}
			if o := &outs[nextFlush]; o.done && w != nil {
				row := o.row
				fmt.Fprintf(w, "%-10s p=%-3d %6dB  n=%-4d median %.4g µs [%.4g, %.4g]%s\n",
					row.Collective, row.Ranks, row.Bytes, row.N, row.MedianUs, row.CILoUs, row.CIHiUs, rowFlag(row))
			}
			nextFlush++
		}
	}
	for i := range completions {
		finished[i] = true
		flush(false)
	}
	flush(true) // the pool has drained: flush past never-claimed gaps

	// Reassemble in canonical order. A missing job (never claimed, or
	// cancelled before retaining a sample) marks the sweep interrupted;
	// rows themselves are never reordered relative to the serial walk.
	res := &Result{Config: cfg, Models: map[string]model.CollectiveModel{}}
	var firstErr error
	for i := range jobs {
		o := &outs[i]
		if o.err != nil && firstErr == nil {
			firstErr = o.err
		}
		if o.done {
			res.Rows = append(res.Rows, o.row)
			if o.row.Stop == bench.StopInterrupted {
				res.Interrupted = true
			}
		} else {
			res.Interrupted = true
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}

	// Fit scaling models for every group whose sweep completed cleanly,
	// exactly the groups the serial walk fitted.
	for gi, g := range groups {
		ps := make([]int, 0, len(g.jobs))
		medians := make([]float64, 0, len(g.jobs))
		clean := true
		for _, ji := range g.jobs {
			o := &outs[ji]
			if !o.done || o.row.Stop == bench.StopInterrupted {
				clean = false
				break
			}
			ps = append(ps, o.row.Ranks)
			medians = append(medians, o.row.MedianUs*1e-6)
		}
		if clean && len(ps) >= 4 {
			if m, err := model.FitCollective(ps, medians); err == nil {
				res.Models[fmt.Sprintf("%s/%dB", groups[gi].coll, groups[gi].bytes)] = m
			}
		}
	}
	return res, nil
}

// rowFlag annotates a progress line with anything that disqualifies the
// row as a clean measurement.
func rowFlag(r Row) string {
	switch {
	case r.Stop == bench.StopDegraded:
		return fmt.Sprintf("  DEGRADED lost=%d", r.SamplesLost)
	case r.Stop == bench.StopInterrupted:
		return "  INTERRUPTED"
	case r.SamplesLost > 0:
		return fmt.Sprintf("  lost=%d", r.SamplesLost)
	}
	return ""
}

func known(c string) bool {
	for _, k := range AllCollectives {
		if c == k {
			return true
		}
	}
	return false
}

func addRow(tbl *report.Table, r Row) {
	tbl.AddRow(r.Collective, r.Ranks, r.Bytes, r.N,
		fmt.Sprintf("%.4g", r.MedianUs),
		fmt.Sprintf("[%.4g, %.4g]", r.CILoUs, r.CIHiUs),
		fmt.Sprintf("%.4g", r.P99Us),
		fmt.Sprintf("%.3g", r.MaxSkewUs),
		r.SamplesLost,
		stopLabel(r.Stop))
}

// stopLabel compresses bench's stop reasons into table-width words.
func stopLabel(s bench.StopReason) string {
	switch s {
	case bench.StopConverged:
		return "converged"
	case bench.StopMaxSamples:
		return "budget"
	case bench.StopDegraded:
		return "DEGRADED"
	case bench.StopInterrupted:
		return "INTERRUPTED"
	case bench.StopFixed:
		return "fixed"
	}
	return string(s)
}

// measure runs one configuration through bench's measurement controller:
// adaptive CI-driven sampling, optional resilient collection, and clean
// checkpointing on cancellation.
func measure(ctx context.Context, cfg Config, coll string, ranks, bytes int, seed uint64) (Row, error) {
	m, err := cluster.New(cfg.Cluster, ranks, seed)
	if err != nil {
		return Row{}, err
	}
	row := Row{Collective: coll, Ranks: ranks, Bytes: bytes}

	// Synchronize once per configuration (the skew is part of what a
	// real harness pays; Rule 10 requires reporting it).
	sync := m.DelayWindowSync(time.Millisecond, 3)
	row.MaxSkewUs = float64(sync.MaxSkew) / float64(time.Microsecond)

	run := func() (float64, error) {
		var cr cluster.CollectiveResult
		switch coll {
		case Reduce:
			cr = m.Reduce(bytes, sync.Skew)
		case Allreduce:
			cr = m.Allreduce(bytes, sync.Skew)
		case Bcast:
			cr = m.Bcast(bytes, sync.Skew)
		case Barrier:
			cr = m.Barrier(sync.Skew)
		case Gather:
			cr = m.Gather(bytes, sync.Skew)
		case Scatter:
			cr = m.Scatter(bytes, sync.Skew)
		case Allgather:
			cr = m.Allgather(bytes, sync.Skew)
		case Alltoall:
			cr = m.Alltoall(bytes, sync.Skew)
		}
		m.Advance(cr.Max() + 10*time.Microsecond)
		return float64(cr.Max()) / float64(time.Microsecond), nil
	}

	res, err := bench.RunErrCtx(ctx, bench.Plan{
		MinSamples: cfg.MinRuns,
		MaxSamples: cfg.MaxRuns,
		RelErr:     cfg.RelErr,
		Confidence: cfg.Confidence,
		BatchSize:  10,
		Resilience: cfg.Resilience,
		// The suite parallelizes across configurations; keep the
		// per-configuration analysis serial to avoid oversubscription.
		Workers: 1,
	}, run)
	if err != nil {
		return Row{}, err
	}
	row.N = len(res.Raw)
	smp := stats.NewSample(res.Raw)
	row.MedianUs = smp.Quantile(0.5)
	row.P99Us = smp.Quantile(0.99)
	row.CILoUs = res.MedianCI.Lo
	row.CIHiUs = res.MedianCI.Hi
	row.Converged = res.Stop == bench.StopConverged
	row.Stop = res.Stop
	row.SamplesLost = res.SamplesLost
	return row, nil
}

// WriteReport renders the complete suite result: the measurement table
// sorted canonically plus the fitted scaling models.
func (r *Result) WriteReport(w io.Writer) error {
	rows := append([]Row(nil), r.Rows...)
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Collective != rows[j].Collective {
			return rows[i].Collective < rows[j].Collective
		}
		if rows[i].Bytes != rows[j].Bytes {
			return rows[i].Bytes < rows[j].Bytes
		}
		return rows[i].Ranks < rows[j].Ranks
	})
	title := "collective microbenchmark suite on " + r.Config.Cluster.Name
	if r.Interrupted {
		title += " (PARTIAL: sweep interrupted)"
	}
	tbl := &report.Table{
		Title: title,
		Headers: []string{
			"collective", "p", "bytes", "n", "median (µs)", "95% CI", "p99 (µs)", "sync skew (µs)", "lost", "stop",
		},
	}
	for _, row := range rows {
		addRow(tbl, row)
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	if r.Interrupted {
		fmt.Fprintln(w, "\nsweep interrupted before completion: rows above are the configurations"+
			" that finished; unmeasured configurations are absent, not zero (Rule 2).")
	}
	if lost := r.TotalLost(); lost > 0 {
		fmt.Fprintf(w, "\nresilient collection dropped %d observation slot(s) across the sweep;"+
			" per-row losses are in the table (Rule 4: losses are data).\n", lost)
	}
	if len(r.Models) > 0 {
		fmt.Fprintln(w, "\nfitted scaling models (T in seconds):")
		keys := make([]string, 0, len(r.Models))
		for k := range r.Models {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "  %-16s %s\n", k, r.Models[k])
		}
	}
	return nil
}
