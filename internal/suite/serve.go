package suite

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/ci"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/stats"
)

// ServeConfig parametrizes an offered-load sweep of the serve workload:
// the arrival process and server model are fixed while the arrival rate
// ramps through Loads × capacity, exposing the latency knee.
type ServeConfig struct {
	// Arrival is the arrival process; its Rate field is overridden per
	// load point (Kind, Periods, ON/OFF shape are preserved).
	Arrival serve.ArrivalConfig
	// Server is the simulated service under test.
	Server serve.ServerConfig
	// Loads are the offered-load fractions ρ of nominal capacity to
	// sweep (default 0.1…0.95). Capacity (req/s) is
	// Servers·BatchMax/(Mean + PerItem·(BatchMax−1)) — the peak
	// full-batch service rate.
	Loads []float64
	// Duration is the simulated time per epoch (default 10 s).
	Duration time.Duration
	// Epochs is the number of independently seeded epochs per load point
	// (default and minimum 6 — nonparametric CIs need n > 5). Epoch
	// latencies merge into one histogram per point.
	Epochs int
	// Confidence is the CI level for the tail quantiles (default 0.95).
	Confidence float64
	// KneeFactor declares the knee at the first load whose merged p99
	// exceeds KneeFactor × the lowest load's p99 (default 3).
	KneeFactor float64
	Seed       uint64
	// Workers bounds how many load points run concurrently. Zero selects
	// GOMAXPROCS; 1 is the serial path. On two procs the default ran
	// `scibench serve` in 81 ms against 129 ms on one (1.59×, 10 of 10
	// pairs; EXPERIMENTS.md). Every epoch's seed is assigned
	// from the canonical (point, epoch) enumeration before fan-out and
	// each point's epochs run serially inside its job, so the Result —
	// including its JSON encoding — is bit-identical for every worker
	// count (Rule 9).
	Workers int
}

func (c ServeConfig) withDefaults() ServeConfig {
	if c.Loads == nil {
		c.Loads = []float64{0.1, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95}
	}
	if c.Duration <= 0 {
		c.Duration = 10 * time.Second
	}
	if c.Epochs < 6 {
		c.Epochs = 6
	}
	if c.Confidence <= 0 || c.Confidence >= 1 {
		c.Confidence = 0.95
	}
	if c.KneeFactor <= 1 {
		c.KneeFactor = 3
	}
	return c
}

// Capacity returns the sweep's nominal service capacity in req/s: the
// rate a ServeConfig's servers sustain with every batch full.
func (c ServeConfig) Capacity() float64 {
	srv := c.Server
	servers := srv.Servers
	if servers == 0 {
		servers = 1
	}
	batch := srv.BatchMax
	if batch == 0 {
		batch = 1
	}
	mean := srv.Service.Mean
	if mean == 0 {
		mean = time.Millisecond
	}
	perBatch := mean + srv.Service.PerItem*time.Duration(batch-1)
	return float64(servers) * float64(batch) / perBatch.Seconds()
}

// ServeRow is one measured load point.
type ServeRow struct {
	Load    float64 `json:"load"`     // offered fraction ρ of capacity
	RateRps float64 `json:"rate_rps"` // absolute offered rate

	Offered   int     `json:"offered"`
	Completed int     `json:"completed"`
	Dropped   int     `json:"dropped"`
	Batches   int     `json:"batches"`
	MeanBatch float64 `json:"mean_batch"` // 0 when no batch dispatched

	ThroughputRps float64 `json:"throughput_rps"`

	// Tail quantiles of the merged per-point histogram, in ms, each with
	// its rank-based nonparametric CI (ci.QuantileCIHist).
	P50Ms   float64 `json:"p50_ms"`
	P50LoMs float64 `json:"p50_lo_ms"`
	P50HiMs float64 `json:"p50_hi_ms"`
	P99Ms   float64 `json:"p99_ms"`
	P99LoMs float64 `json:"p99_lo_ms"`
	P99HiMs float64 `json:"p99_hi_ms"`
	P999Ms  float64 `json:"p999_ms"`
	MaxMs   float64 `json:"max_ms"`

	Stop bench.StopReason `json:"stop"`
}

// ServeResult is a complete load sweep.
type ServeResult struct {
	Mode        serve.LoopMode `json:"mode"`
	Arrival     string         `json:"arrival"`
	CapacityRps float64        `json:"capacity_rps"`
	DurationSec float64        `json:"duration_sec"`
	Epochs      int            `json:"epochs"`
	Seed        uint64         `json:"seed"`
	Rows        []ServeRow     `json:"rows"`
	// KneeLoad is the first swept load whose p99 exceeds KneeFactor ×
	// the base (lowest-load) p99; 0 when the sweep never knees.
	KneeLoad float64 `json:"knee_load"`
	// Omission is the coordinated-omission audit run at the highest
	// swept load on a stall-injected copy of the workload (only when the
	// config carries stalls; zero otherwise).
	OmissionRatio float64 `json:"omission_ratio"`
}

// servePoint is one load point with its canonically assigned epoch
// seeds, fixed before any fan-out.
type servePoint struct {
	load  float64
	rate  float64
	seeds []uint64
}

// enumerateServe builds the canonical load-point list. Seeds continue
// the serial seed++ walk over (point, epoch) in sweep order, mirroring
// the collective sweep's discipline.
func enumerateServe(cfg ServeConfig) []servePoint {
	cap := cfg.Capacity()
	seed := cfg.Seed
	pts := make([]servePoint, len(cfg.Loads))
	for i, load := range cfg.Loads {
		p := servePoint{load: load, rate: load * cap}
		for e := 0; e < cfg.Epochs; e++ {
			seed++
			p.seeds = append(p.seeds, seed)
		}
		pts[i] = p
	}
	return pts
}

// RunServe executes the load sweep on cfg.Workers goroutines and
// returns the per-point tail-latency table with the detected knee.
// Progress rows stream to w in canonical load order (nil = silent).
func RunServe(ctx context.Context, cfg ServeConfig, w io.Writer) (*ServeResult, error) {
	cfg = cfg.withDefaults()
	if ctx == nil {
		ctx = context.Background()
	}
	pts := enumerateServe(cfg)
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pts) {
		workers = len(pts)
	}
	if workers < 1 {
		workers = 1
	}

	type pointOut struct {
		row ServeRow
		err error
	}
	outs := make([]pointOut, len(pts))
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(pts) || ctx.Err() != nil {
					return
				}
				row, err := measureServePoint(ctx, cfg, pts[i])
				outs[i] = pointOut{row: row, err: err}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res := &ServeResult{
		Mode:        serve.OpenLoop,
		Arrival:     string(arrivalKind(cfg.Arrival)),
		CapacityRps: cfg.Capacity(),
		DurationSec: cfg.Duration.Seconds(),
		Epochs:      cfg.Epochs,
		Seed:        cfg.Seed,
	}
	for i := range pts {
		if outs[i].err != nil {
			return nil, outs[i].err
		}
		row := outs[i].row
		res.Rows = append(res.Rows, row)
		if w != nil {
			fmt.Fprintf(w, "ρ=%-5.2f %9.0f req/s  p50 %8.3f ms  p99 %8.3f ms [%.3f, %.3f]  drop %d\n",
				row.Load, row.RateRps, row.P50Ms, row.P99Ms, row.P99LoMs, row.P99HiMs, row.Dropped)
		}
	}
	if len(res.Rows) > 1 {
		base := res.Rows[0].P99Ms
		for _, row := range res.Rows[1:] {
			if base > 0 && row.P99Ms > cfg.KneeFactor*base {
				res.KneeLoad = row.Load
				break
			}
		}
	}
	if len(cfg.Server.Stalls) > 0 && len(pts) > 0 {
		top := pts[len(pts)-1]
		chk, err := serve.CheckCoordinatedOmission(serve.Options{
			Arrival:  withRate(cfg.Arrival, top.rate),
			Server:   cfg.Server,
			Duration: cfg.Duration,
			Seed:     top.seeds[0],
		})
		if err != nil {
			return nil, err
		}
		res.OmissionRatio = chk.Ratio
	}
	return res, nil
}

func arrivalKind(a serve.ArrivalConfig) serve.ArrivalKind {
	if a.Kind == "" {
		return serve.Poisson
	}
	return a.Kind
}

func withRate(a serve.ArrivalConfig, rate float64) serve.ArrivalConfig {
	a.Rate = rate
	return a
}

// measureServePoint runs one load point: Epochs seeded epochs collected
// through bench's fixed-count controller (per-epoch p99 is the bench
// observable; Rule 4's loss accounting and stop verdict ride along),
// with every per-request latency merged into one histogram for the
// rank-based tail CIs.
func measureServePoint(ctx context.Context, cfg ServeConfig, pt servePoint) (ServeRow, error) {
	row := ServeRow{Load: pt.load, RateRps: pt.rate}
	merged := &stats.LogHistogram{}
	epochHist := &stats.LogHistogram{} // reused across epochs: zero alloc growth
	epoch := 0
	benchRes, err := bench.RunErrCtx(ctx, bench.Plan{
		MinSamples: cfg.Epochs,
		MaxSamples: cfg.Epochs,
		Confidence: cfg.Confidence,
	}, func() (float64, error) {
		r, err := serve.Run(serve.Options{
			Arrival:  withRate(cfg.Arrival, pt.rate),
			Server:   cfg.Server,
			Duration: cfg.Duration,
			Seed:     pt.seeds[epoch%len(pt.seeds)],
			Mode:     serve.OpenLoop,
			Hist:     epochHist,
		})
		if err != nil {
			return 0, err
		}
		epoch++
		row.Offered += r.Offered
		row.Completed += r.Completed
		row.Dropped += r.Dropped
		row.Batches += r.Batches
		merged.Merge(r.Hist)
		if ms := 1e3 * float64(r.MaxLatency.Seconds()); ms > row.MaxMs {
			row.MaxMs = ms
		}
		row.ThroughputRps += r.Throughput
		return 1e3 * r.Hist.Quantile(0.99), nil
	})
	if err != nil {
		return row, fmt.Errorf("suite: load point ρ=%.2f: %w", pt.load, err)
	}
	row.Stop = benchRes.Stop
	if row.Batches > 0 {
		row.MeanBatch = float64(row.Completed) / float64(row.Batches)
	}
	row.ThroughputRps /= float64(epoch)

	row.P50Ms = 1e3 * merged.Quantile(0.5)
	row.P99Ms = 1e3 * merged.Quantile(0.99)
	row.P999Ms = 1e3 * merged.Quantile(0.999)
	if iv, err := ci.QuantileCIHist(merged, 0.5, cfg.Confidence); err == nil {
		row.P50LoMs, row.P50HiMs = 1e3*iv.Lo, 1e3*iv.Hi
	}
	if iv, err := ci.QuantileCIHist(merged, 0.99, cfg.Confidence); err == nil {
		row.P99LoMs, row.P99HiMs = 1e3*iv.Lo, 1e3*iv.Hi
	}
	return row, nil
}

// WriteJSON renders the sweep as deterministic indented JSON — the
// merged.json artifact whose bytes must not depend on the worker count.
func (r *ServeResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteReport renders the human-readable sweep table with the knee and
// omission diagnostics.
func (r *ServeResult) WriteReport(w io.Writer) error {
	tbl := &report.Table{
		Title: fmt.Sprintf("open-loop %s load sweep (capacity %.0f req/s, %d × %.0fs epochs per point)",
			r.Arrival, r.CapacityRps, r.Epochs, r.DurationSec),
		Headers: []string{
			"ρ", "offered req/s", "tput req/s", "p50 (ms)", "p99 (ms)", "p99 CI", "p999 (ms)", "drop", "batch",
		},
	}
	for _, row := range r.Rows {
		tbl.AddRow(
			fmt.Sprintf("%.2f", row.Load),
			fmt.Sprintf("%.0f", row.RateRps),
			fmt.Sprintf("%.0f", row.ThroughputRps),
			fmt.Sprintf("%.3f", row.P50Ms),
			fmt.Sprintf("%.3f", row.P99Ms),
			fmt.Sprintf("[%.3f, %.3f]", row.P99LoMs, row.P99HiMs),
			fmt.Sprintf("%.3f", row.P999Ms),
			row.Dropped,
			fmt.Sprintf("%.1f", row.MeanBatch),
		)
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	switch {
	case r.KneeLoad > 0:
		fmt.Fprintf(w, "\nlatency knee at ρ = %.2f: p99 is %.1f× the base-load p99 there"+
			" (report the curve, not one point — Rule 2).\n", r.KneeLoad, kneeRatio(r))
	case len(r.Rows) > 1:
		fmt.Fprintln(w, "\nno latency knee inside the swept range.")
	}
	if r.OmissionRatio > 0 {
		fmt.Fprintf(w, "coordinated-omission audit at top load: open-loop p99 is %.1f× the closed-loop"+
			" p99 on the identical stall schedule.\n", r.OmissionRatio)
	}
	return nil
}

// kneeRatio is the measured p99 blow-up at the detected knee relative
// to the base load.
func kneeRatio(r *ServeResult) float64 {
	if len(r.Rows) == 0 || r.Rows[0].P99Ms == 0 {
		return math.NaN()
	}
	for _, row := range r.Rows {
		if row.Load == r.KneeLoad {
			return row.P99Ms / r.Rows[0].P99Ms
		}
	}
	return math.NaN()
}
