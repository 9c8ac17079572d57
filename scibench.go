// Package scibench is a statistically sound benchmarking library for
// parallel computing, reproducing Hoefler & Belli, "Scientific
// Benchmarking of Parallel Computing Systems: Twelve ways to tell the
// masses when reporting performance results" (SC'15).
//
// It is the supported public surface over the implementation packages:
//
//   - measurement campaigns with warmup, adaptive CI-driven stopping and
//     explicit outlier policy (Run, Plan, Result);
//   - the correct summaries for costs, rates and ratios (Rules 3–4);
//   - confidence intervals of the mean (Student-t) and of the median and
//     arbitrary quantiles (nonparametric, Le Boudec);
//   - normality diagnostics (Shapiro–Wilk, Q-Q) and sound comparisons
//     (Welch t-test, one-way ANOVA, Kruskal–Wallis, effect size);
//   - quantile regression for tail-sensitive comparisons (Fig 4);
//   - bounds models (ideal speedup and the §5.1 machine model);
//   - the designed-experiment pipeline (Experiment → Results → Audit)
//     with a twelve-rule compliance audit;
//   - a simulated parallel machine (clusters, clocks, collectives,
//     noise) substituting for MPI testbeds, for fully reproducible
//     experiments.
//
// The quickstart in examples/quickstart/main.go measures a function and
// prints a fully analyzed, audit-clean report in ~20 lines.
package scibench

import (
	"context"
	"io"
	"math/rand/v2"
	"net/http"

	"repro/internal/bench"
	"repro/internal/bootstrap"
	"repro/internal/bounds"
	"repro/internal/campaign"
	"repro/internal/ci"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/doe"
	"repro/internal/faults"
	"repro/internal/htest"
	"repro/internal/model"
	"repro/internal/qreg"
	"repro/internal/regress"
	"repro/internal/remote"
	"repro/internal/report"
	"repro/internal/rules"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/suite"
	"repro/internal/telemetry"
	"repro/internal/timer"
)

// Measurement campaign configuration and results (package bench).
type (
	// Plan configures a measurement campaign: warmup, fixed or adaptive
	// sample counts, confidence level, and outlier policy.
	Plan = bench.Plan
	// Result is a fully analyzed campaign: summary statistics, CIs of
	// mean and median, normality diagnostics, and provenance.
	Result = bench.Result
	// OutlierPolicy selects Tukey-fence removal (the removed count is
	// always reported, per §3.1.3).
	OutlierPolicy = bench.OutlierPolicy
	// StopReason explains why sample collection ended (see the Stop*
	// constants).
	StopReason = bench.StopReason
)

// Run executes a measurement campaign against the measure closure.
func Run(plan Plan, measure func() float64) (Result, error) {
	return bench.Run(plan, measure)
}

// RunErr executes a campaign against an error-aware measure closure: a
// returned error fails that sample attempt, which Plan.Resilience
// retries and accounts rather than aborting.
func RunErr(plan Plan, measure func() (float64, error)) (Result, error) {
	return bench.RunErr(plan, measure)
}

// RunCtx is Run under a context: cancellation (Ctrl-C, a wall-clock
// budget) checkpoints the campaign cleanly with StopInterrupted instead
// of discarding the collected samples.
func RunCtx(ctx context.Context, plan Plan, measure func() float64) (Result, error) {
	return bench.RunCtx(ctx, plan, measure)
}

// RunErrCtx is RunErr under a context; see RunCtx.
func RunErrCtx(ctx context.Context, plan Plan, measure func() (float64, error)) (Result, error) {
	return bench.RunErrCtx(ctx, plan, measure)
}

// Stop reasons recorded in Result.Stop.
const (
	// StopFixed: no adaptive target; the fixed sample count was collected.
	StopFixed = bench.StopFixed
	// StopConverged: the CI reached the requested relative width.
	StopConverged = bench.StopConverged
	// StopMaxSamples: the budget ran out before convergence.
	StopMaxSamples = bench.StopMaxSamples
	// StopDegraded: resilient collection abandoned the campaign after too
	// many losses; the Result is partial with full loss accounting.
	StopDegraded = bench.StopDegraded
	// StopInterrupted: the context was cancelled and collection
	// checkpointed cleanly; a journaled campaign can resume.
	StopInterrupted = bench.StopInterrupted
)

// Analyze runs the full statistical analysis over an existing sample.
func Analyze(xs []float64, confidence float64) (Result, error) {
	return bench.Analyze(xs, confidence)
}

// Descriptive statistics (package stats).
type (
	// Summary is the descriptive-statistics bundle the paper asks
	// experimenters to report.
	Summary = stats.Summary
	// MetricKind classifies a metric as cost, rate, or ratio (Rules 3–4).
	MetricKind = stats.Kind
)

// Metric kinds.
const (
	Cost  = stats.Cost
	Rate  = stats.Rate
	Ratio = stats.Ratio
)

// Mean returns the arithmetic mean (correct for costs, Rule 3).
func Mean(xs []float64) float64 { return stats.Mean(xs) }

// HarmonicMean returns the harmonic mean (correct for rates, Rule 3).
func HarmonicMean(xs []float64) (float64, error) { return stats.HarmonicMean(xs) }

// SummarizeMean dispatches to the correct mean for the metric kind.
func SummarizeMean(kind MetricKind, xs []float64) (float64, error) {
	return stats.SummarizeMean(kind, xs)
}

// Median returns the 50th percentile.
func Median(xs []float64) float64 { return stats.Median(xs) }

// Quantile returns the p-quantile of xs (type-7 interpolation).
func Quantile(xs []float64, p float64) float64 { return stats.QuantileOf(xs, p) }

// Summarize computes the full descriptive summary.
func Summarize(xs []float64) Summary { return stats.Summarize(xs) }

// Sample is the allocation-lean fast path through the statistics layer:
// it sorts the data exactly once at construction and caches the sorted
// view plus the single-pass (Welford) moments, so quantiles, the
// Summary, Tukey fences, and the rank-based CIs all reuse one ordered
// view. A Sample is immutable after construction and safe for
// concurrent use.
type Sample = stats.Sample

// NewSample wraps xs in a Sample, sorting a copy once and accumulating
// the moments. The slice itself is retained (not copied) and must not
// be mutated while the Sample is in use.
func NewSample(xs []float64) *Sample { return stats.NewSample(xs) }

// Confidence intervals (package ci).

// Interval is a two-sided confidence interval around a point estimate.
type Interval = ci.Interval

// MeanCI returns the Student-t confidence interval for the mean.
func MeanCI(xs []float64, confidence float64) (Interval, error) {
	return ci.MeanCI(xs, confidence)
}

// MedianCI returns the nonparametric rank-based CI for the median.
func MedianCI(xs []float64, confidence float64) (Interval, error) {
	return ci.MedianCI(xs, confidence)
}

// QuantileCI returns the nonparametric rank-based CI for any quantile.
func QuantileCI(xs []float64, p, confidence float64) (Interval, error) {
	return ci.QuantileCI(xs, p, confidence)
}

// RatioCI returns the distribution-free CI on the ratio cand/base of
// two samples of positive costs (Mann–Whitney inverted on log values).
func RatioCI(base, cand []float64, confidence float64) (Interval, error) {
	return ci.RatioCI(base, cand, confidence)
}

// RequiredSamples computes the sample size needed for a target relative
// error at a confidence level, from a normal pilot sample (§4.2.2).
func RequiredSamples(pilot []float64, confidence, relErr float64) (int, error) {
	return ci.RequiredSamples(pilot, confidence, relErr)
}

// Hypothesis tests (package htest).
type (
	// TestResult carries a test statistic and its p-value.
	TestResult = htest.TestResult
	// ANOVAResult extends TestResult with the variance decomposition.
	ANOVAResult = htest.ANOVAResult
)

// ShapiroWilk tests composite normality (Rule 6; 3 <= n <= 5000).
func ShapiroWilk(xs []float64) (TestResult, error) { return htest.ShapiroWilk(xs) }

// TTest compares two means (welch=true recommended).
func TTest(xs, ys []float64, welch bool) (TestResult, error) {
	return htest.TTest(xs, ys, welch)
}

// OneWayANOVA tests equality of k group means (§3.2.1).
func OneWayANOVA(groups ...[]float64) (ANOVAResult, error) {
	return htest.OneWayANOVA(groups...)
}

// KruskalWallis tests equality of k group medians (§3.2.2).
func KruskalWallis(groups ...[]float64) (TestResult, error) {
	return htest.KruskalWallis(groups...)
}

// EffectSize returns the standardized mean difference (§3.2.2).
func EffectSize(xs, ys []float64) (float64, error) { return htest.EffectSize(xs, ys) }

// MannWhitneyResult extends TestResult with the U statistics and the
// rank-biserial effect size.
type MannWhitneyResult = htest.MannWhitneyResult

// MannWhitney performs the two-sample Wilcoxon rank-sum test (the
// two-group Kruskal–Wallis specialization of §3.2.2), with mid-ranks,
// tie-corrected variance, and a continuity-corrected two-sided p.
func MannWhitney(xs, ys []float64) (MannWhitneyResult, error) {
	return htest.MannWhitney(xs, ys)
}

// AndersonDarling tests composite normality with the A² statistic — one
// of the alternatives Rule 6's discussion compares Shapiro–Wilk against.
func AndersonDarling(xs []float64) (TestResult, error) { return htest.AndersonDarling(xs) }

// Lilliefors tests composite normality with the KS statistic and
// estimated parameters.
func Lilliefors(xs []float64) (TestResult, error) { return htest.Lilliefors(xs) }

// IIDDiagnosis bundles independence diagnostics (autocorrelations and
// the runs test) behind the iid requirement of §3.1.3.
type IIDDiagnosis = htest.IIDDiagnosis

// DiagnoseIID checks a measurement series for serial dependence.
func DiagnoseIID(xs []float64, maxLag int) (IIDDiagnosis, error) {
	return htest.DiagnoseIID(xs, maxLag)
}

// Bootstrap resampling (package bootstrap) — the "more advanced
// techniques" pointer of the paper's related work, for statistics with
// no analytic interval.

// BootstrapMethod selects the bootstrap interval construction.
type BootstrapMethod = bootstrap.Method

// Bootstrap interval constructions.
const (
	// BootstrapPercentile uses raw bootstrap-distribution quantiles.
	BootstrapPercentile = bootstrap.Percentile
	// BootstrapBCa applies bias correction and acceleration.
	BootstrapBCa = bootstrap.BCa
)

// BootstrapCI computes a resampling CI for an arbitrary statistic. The
// resamples are sharded across all cores with one derived PCG stream
// per resample, so the interval is bit-identical however many workers
// run it; the stat must be safe for concurrent calls on distinct
// slices.
func BootstrapCI(xs []float64, stat func([]float64) float64, method BootstrapMethod,
	resamples int, confidence float64, rng *rand.Rand) (Interval, error) {
	return bootstrap.CI(xs, stat, method, resamples, confidence, rng)
}

// BootstrapDifferenceCI bootstraps stat(ys) − stat(xs), parallelized
// with the same worker-count-invariance guarantee as BootstrapCI.
func BootstrapDifferenceCI(xs, ys []float64, stat func([]float64) float64,
	resamples int, confidence float64, rng *rand.Rand) (Interval, error) {
	return bootstrap.DifferenceCI(xs, ys, stat, resamples, confidence, rng)
}

// Factorial design (package doe, §4's recommendation).
type (
	// DesignFactor is one factor with its levels.
	DesignFactor = doe.Factor
	// FactorialDesign is a set of runs over factor-level combinations.
	FactorialDesign = doe.Design
	// DesignObservations holds replicated measurements per run.
	DesignObservations = doe.Observations
	// FactorEffect is one estimated main effect or interaction.
	FactorEffect = doe.Effect
)

// TwoLevelDesign builds a 2^k design over the named factors.
func TwoLevelDesign(names ...string) (*FactorialDesign, error) {
	return doe.TwoLevel(names...)
}

// CollectDesign executes a design with `reps` replicates per run.
func CollectDesign(d *FactorialDesign, reps int, measure func(levels []int) float64) (*DesignObservations, error) {
	return doe.Collect(d, reps, measure)
}

// FactorEffects estimates main effects (and optionally two-factor
// interactions) of a replicated two-level design.
func FactorEffects(obs *DesignObservations, interactions bool) ([]FactorEffect, error) {
	return doe.Effects(obs, interactions)
}

// Software counters (package counters — the PAPI analogue).
type (
	// CounterDelta is the counter change across one measured region.
	CounterDelta = counters.Delta
)

// MeasureCounters runs fn once and returns its counter delta (allocation
// volume, GC activity, elapsed time).
func MeasureCounters(fn func()) CounterDelta { return counters.Measure(fn) }

// CounterSeries collects per-invocation deltas over n runs.
func CounterSeries(n int, fn func()) []CounterDelta { return counters.Series(n, fn) }

// Quantile regression (package qreg).
type (
	// QuantileFit is one fitted quantile-regression model.
	QuantileFit = qreg.Fit
	// QuantilePoint is one quantile's two-group comparison (Fig 4).
	QuantilePoint = qreg.TwoGroupPoint
)

// QuantileRegress fits the exact Koenker–Bassett LP for tau.
func QuantileRegress(x [][]float64, y []float64, tau float64) (QuantileFit, error) {
	return qreg.Regress(x, y, tau)
}

// CompareQuantiles computes per-quantile differences between two systems
// with confidence bands (the Fig 4 analysis).
func CompareQuantiles(base, alt []float64, taus []float64, confidence float64) ([]QuantilePoint, error) {
	return qreg.TwoGroupQuantiles(base, alt, taus, confidence)
}

// Bounds models (package bounds).
type (
	// Ideal is the linear-speedup bound.
	Ideal = bounds.Ideal
	// MachineModel is the k-dimensional capability vector Γ of §5.1.
	MachineModel = bounds.MachineModel
	// Requirements is an application's measured rate vector τ.
	Requirements = bounds.Requirements
)

// NewMachineModel builds a validated machine model.
func NewMachineModel(features []string, peaks []float64) (*MachineModel, error) {
	return bounds.NewMachineModel(features, peaks)
}

// Semi-analytic model fitting (package model, §5.1).

// CollectiveModel is the LogP-style T(p) = A + B·log₂p + C·p model.
type CollectiveModel = model.CollectiveModel

// Experiment pipeline (package core).
type (
	// Experiment is a designed measurement campaign (Rule 9 metadata +
	// plan + configurations).
	Experiment = core.Experiment
	// Metadata documents an experiment's environment and factors.
	Metadata = core.Metadata
	// Configuration is one factor-level combination.
	Configuration = core.Configuration
	// Results is an analyzed experiment.
	Results = core.Results
)

// Rules audit (package rules).
type (
	// RulesReport describes a study for auditing.
	RulesReport = rules.Report
	// Finding is one audit observation.
	Finding = rules.Finding
	// Compliance is the 12-rule scorecard.
	Compliance = rules.Compliance
	// ExperimentEnv documents the nine environment classes of Table 1.
	ExperimentEnv = rules.Environment
	// ExperimentFactor is one varied factor with its levels.
	ExperimentFactor = rules.Factor
	// ParallelTimingDoc documents Rule 10 methodology.
	ParallelTimingDoc = rules.ParallelTiming
	// RulesPlot describes one figure for the Rule 12 audit.
	RulesPlot = rules.Plot
	// RulesComparison records one A-beats-B claim for the Rule 7 audit.
	RulesComparison = rules.Comparison
	// RulesSpeedup documents a speedup claim for the Rule 1 audit.
	RulesSpeedup = rules.Speedup
	// RulesSummaryUse records one summarized metric for Rules 3–4.
	RulesSummaryUse = rules.SummaryUse
)

// AuditRules checks a report against the twelve rules.
func AuditRules(r RulesReport) ([]Finding, Compliance) {
	fs := rules.Audit(r)
	return fs, rules.Summarize(fs)
}

// RuleText returns rule n's text verbatim (1–12).
func RuleText(n int) string {
	if n < 1 || n > 12 {
		return ""
	}
	return rules.RuleTexts[n]
}

// Fault injection and resilient measurement (packages faults, bench,
// htest): deterministic, seeded fault schedules for the simulated
// machine, a collection loop that survives and accounts failures, and a
// change-point detector for mid-campaign contamination.
type (
	// FaultSchedule is a deterministic set of injected faults for a
	// simulated cluster (set ClusterConfig.Faults).
	FaultSchedule = faults.Schedule
	// Straggler is a persistently slowed node.
	Straggler = faults.Straggler
	// InterferenceBurst is a windowed (optionally periodic) latency
	// multiplier on the interconnect.
	InterferenceBurst = faults.Burst
	// MessageLoss is probabilistic message loss with timeout-based
	// retransmission and exponential backoff.
	MessageLoss = faults.Loss
	// RankCrash removes a rank from the machine at a point in time.
	RankCrash = faults.Crash
	// ClockStepFault is an NTP-style step of one rank's clock, violating
	// the §4.2.1 synchronization assumptions.
	ClockStepFault = faults.ClockStep
	// ClusterFaultStats counts fault events a simulated machine absorbed.
	ClusterFaultStats = cluster.FaultStats
	// Resilience arms the fault-tolerant collection loop in a Plan:
	// per-sample watchdog, value ceiling, bounded retries, and explicit
	// loss accounting in the Result.
	Resilience = bench.Resilience
	// ChangePoint is the result of Pettitt's nonparametric change-point
	// test over an ordered measurement stream.
	ChangePoint = htest.ChangePoint
)

// Sentinel errors of the measurement API, for errors.Is branching.
var (
	// ErrBadPlan reports a Plan or Resilience field with a nonsensical
	// value.
	ErrBadPlan = bench.ErrBadPlan
	// ErrTooFewSamples reports a sample too small to analyze.
	ErrTooFewSamples = bench.ErrTooFewSamples
	// ErrMeasurePanic wraps a panic recovered from a measure closure.
	ErrMeasurePanic = bench.ErrMeasurePanic
	// ErrSampleTimeout reports a sample attempt that exceeded the
	// resilience watchdog deadline.
	ErrSampleTimeout = bench.ErrSampleTimeout
	// ErrBadFaultSchedule reports an invalid fault schedule.
	ErrBadFaultSchedule = faults.ErrBadSchedule
)

// FaultPreset returns a named ready-made fault schedule ("straggler",
// "burst", "loss", "crash", "clockstep", "storm", or a comma-separated
// combination); "" and "none" return nil.
func FaultPreset(name string) (*FaultSchedule, error) { return faults.Preset(name) }

// FaultPresetNames lists the available preset names.
func FaultPresetNames() []string { return faults.PresetNames() }

// DetectChangePoint runs Pettitt's change-point test over the ordered
// series — the contamination check behind Result.ShiftDetected, usable
// standalone on any sample stream (n >= 8).
func DetectChangePoint(xs []float64) (ChangePoint, error) { return htest.Pettitt(xs) }

// Simulated parallel machine (package cluster).
type (
	// Cluster is a simulated parallel machine.
	Cluster = cluster.Machine
	// ClusterConfig describes a simulated system.
	ClusterConfig = cluster.Config
	// Collective is a simulated collective operation's result.
	Collective = cluster.CollectiveResult
	// CollectiveResultMode selects exact per-rank vs fixed-size summary
	// collective results (ClusterConfig.ResultMode).
	CollectiveResultMode = cluster.ResultMode
)

// Collective result modes: auto switches to summaries at
// ClusterConfig.SummaryThreshold ranks (default 2^16).
const (
	CollectiveModeAuto    = cluster.ModeAuto
	CollectiveModePerRank = cluster.ModePerRank
	CollectiveModeSummary = cluster.ModeSummary
)

// NewCluster instantiates a simulated machine with `ranks` processes.
func NewCluster(cfg ClusterConfig, ranks int, seed uint64) (*Cluster, error) {
	return cluster.New(cfg, ranks, seed)
}

// Preset system models of the paper's §4.1.2 testbeds.
var (
	// PizDaint approximates the Cray XC30 partition.
	PizDaint = cluster.PizDaint
	// PizDora approximates the Cray XC40.
	PizDora = cluster.PizDora
	// Pilatus approximates the InfiniBand FDR cluster.
	Pilatus = cluster.Pilatus
	// QuietCluster returns a noise-free test system.
	QuietCluster = cluster.Quiet
)

// Collective microbenchmark suite (package suite).
type (
	// SuiteConfig parametrizes a collective microbenchmark sweep,
	// including SuiteConfig.Workers: how many configurations are
	// measured concurrently (0 = GOMAXPROCS, 1 = serial). Seeds are
	// assigned from the canonical sweep order before fan-out, so the
	// SuiteResult is bit-identical for every worker count.
	SuiteConfig = suite.Config
	// SuiteResult is a completed sweep with fitted scaling models.
	SuiteResult = suite.Result
)

// RunSuite executes the SKaMPI-style collective suite; progress rows
// stream to w (nil for silent).
func RunSuite(cfg SuiteConfig, w io.Writer) (*SuiteResult, error) {
	return suite.Run(context.Background(), cfg, w)
}

// Open-loop service workloads (packages serve and suite): seeded arrival
// processes into simulated servers, swept over offered load.
type (
	// ArrivalConfig parametrizes a seeded open-loop arrival process:
	// Poisson, multi-period diurnal, or bursty ON/OFF.
	ArrivalConfig = serve.ArrivalConfig
	// DiurnalPeriod is one sinusoidal component of a diurnal rate
	// profile.
	DiurnalPeriod = serve.DiurnalPeriod
	// ServeServiceConfig is the lognormal per-request service-time
	// model.
	ServeServiceConfig = serve.ServiceConfig
	// ServeStall is one injected dispatch freeze — the canonical
	// coordinated-omission trigger.
	ServeStall = serve.Stall
	// ServeServerConfig is the simulated service under test: parallel
	// servers, bounded queue, size/deadline batching, lognormal service
	// times, injected dispatch stalls.
	ServeServerConfig = serve.ServerConfig
	// ServeOptions configures one simulated serving epoch.
	ServeOptions = serve.Options
	// ServeResult is one fully simulated epoch with its latency
	// histogram.
	ServeResult = serve.Result
	// OmissionCheck quantifies coordinated omission: the open- vs
	// closed-loop p99 gap on the identical seeded stall schedule.
	OmissionCheck = serve.OmissionCheck
	// ServeSweepConfig parametrizes an offered-load ramp of the serve
	// workload; like SuiteConfig, results are bit-identical for every
	// Workers value.
	ServeSweepConfig = suite.ServeConfig
	// ServeSweepResult is a completed load sweep with per-point tail
	// quantiles, rank-based CIs, and the detected latency knee.
	ServeSweepResult = suite.ServeResult
	// LogHistogram is the mergeable log-bucketed latency histogram
	// behind the serve workload's tail percentiles: 0 allocs per
	// Record, relative quantization error ≤ 1/64.
	LogHistogram = stats.LogHistogram
)

// RunServe simulates one serving epoch: seeded open- or closed-loop
// arrivals into the configured servers, every latency recorded. An
// epoch past the 4,194,304-request cap is refused with an error, never
// cut short.
func RunServe(o ServeOptions) (ServeResult, error) {
	return serve.Run(o)
}

// CheckCoordinatedOmission runs the same seeded workload open- and
// closed-loop and reports how badly the closed loop under-reports the
// tail (Rules 2, 5, 6).
func CheckCoordinatedOmission(o ServeOptions) (OmissionCheck, error) {
	return serve.CheckCoordinatedOmission(o)
}

// RunServeSweep ramps offered load through the configured fractions of
// capacity and reports tail latency per point with the detected knee;
// progress rows stream to w (nil for silent).
func RunServeSweep(ctx context.Context, cfg ServeSweepConfig, w io.Writer) (*ServeSweepResult, error) {
	return suite.RunServe(ctx, cfg, w)
}

// QuantileCIHist is Le Boudec's rank-based quantile CI resolved through
// a LogHistogram's cumulative counts — nonparametric tail CIs at
// millions of recorded requests without materializing a sample slice.
func QuantileCIHist(h *LogHistogram, p, confidence float64) (Interval, error) {
	return ci.QuantileCIHist(h, p, confidence)
}

// Timer calibration (package timer).
type (
	// TimerCalibration is a clock's measured resolution and overhead.
	TimerCalibration = timer.Calibration
)

// CalibrateTimer measures the wall clock's resolution and overhead and
// returns the §4.2.1 quality thresholds via Calibration.Check.
func CalibrateTimer(samples int) TimerCalibration {
	return timer.Calibrate(timer.NewWallClock(), samples)
}

// Rendering and export (package report).

// WriteCSV exports named sample columns (Rule 9's data release).
func WriteCSV(w io.Writer, names []string, cols ...[]float64) error {
	return report.WriteCSV(w, names, cols...)
}

// DensityPlot renders an annotated ASCII density (Fig 1 style).
func DensityPlot(w io.Writer, xs []float64, width, height int) error {
	return report.DensityPlot(w, xs, width, height)
}

// BoxPlot renders per-group ASCII box plots (Fig 6/7c style).
func BoxPlot(w io.Writer, groups map[string][]float64, width int) error {
	return report.BoxPlot(w, groups, width)
}

// ViolinPlot renders per-group ASCII violins (Fig 7c style).
func ViolinPlot(w io.Writer, groups map[string][]float64, width int) error {
	return report.ViolinPlot(w, groups, width)
}

// QQPlot renders a normal quantile-quantile scatter (Fig 2 style).
func QQPlot(w io.Writer, xs []float64, width, height int) error {
	return report.QQPlot(w, xs, width, height)
}

// Series is one named line in an XY chart.
type Series = report.Series

// XYPlot renders multiple series on a shared ASCII grid (Fig 5/7a/b
// style).
func XYPlot(w io.Writer, title string, series []Series, width, height int) error {
	return report.XYPlot(w, title, series, width, height)
}

// WriteRulesReport renders audit findings grouped by rule with the
// verbatim rule text for every non-passing rule.
func WriteRulesReport(w io.Writer, findings []Finding) error {
	return rules.WriteReport(w, findings)
}

// Durable, interruptible campaigns (package campaign): a write-ahead
// sample journal with per-chunk checksums, a manifest binding the
// journal to its exact setup (Rule 9), and crash/cancel recovery that
// resumes a deterministic campaign bit-for-bit.
type (
	// CampaignManifest binds a journal to the setup that produced it:
	// seed, config hash, fault-schedule fingerprint, environment.
	CampaignManifest = campaign.Manifest
	// CampaignState is the collection state replayed from a journal,
	// with any torn tail dropped.
	CampaignState = campaign.State
	// CampaignResumeInfo reports what a resume recovered and verified.
	CampaignResumeInfo = campaign.ResumeInfo
	// CampaignResumeOptions tunes resume for the measure source; the
	// zero value is right for deterministic (seeded simulated) sources.
	CampaignResumeOptions = campaign.ResumeOptions
)

// NewCampaignManifest builds the Rule 9 manifest for a journaled
// campaign: config is the complete setup description (hashed
// canonically), sched the injected fault schedule (nil for none).
func NewCampaignManifest(name string, seed uint64, config any, sched *FaultSchedule, env ExperimentEnv) (CampaignManifest, error) {
	return campaign.NewManifest(name, seed, config, sched, env)
}

// RunCampaign executes a fully journaled campaign in dir. Events
// become durable at each 64-record chunk seal and on Flush/Close: a
// clean stop loses nothing, a crash at most the unsealed tail, which
// resume re-measures — an interruption at any point leaves a resumable
// journal.
func RunCampaign(ctx context.Context, dir string, m CampaignManifest, plan Plan, measure func() (float64, error)) (Result, error) {
	return campaign.Run(ctx, dir, m, plan, measure)
}

// ResumeCampaign continues an interrupted journaled campaign: it
// replays the journal (dropping any torn tail), refuses on manifest
// drift (Rule 9), fast-forwards the deterministic measure source, and
// runs to completion — bit-identical to an uninterrupted run.
func ResumeCampaign(ctx context.Context, dir string, current CampaignManifest, plan Plan,
	measure func() (float64, error), opt CampaignResumeOptions) (Result, CampaignResumeInfo, error) {
	return campaign.Resume(ctx, dir, current, plan, measure, opt)
}

// LoadCampaign inspects a campaign directory without opening it for
// writing: the manifest plus the verified journal state.
func LoadCampaign(dir string) (CampaignManifest, CampaignState, error) {
	return campaign.Load(dir)
}

// Sentinel errors of the campaign layer, for errors.Is branching.
var (
	// ErrManifestDrift reports a resume whose current setup differs from
	// the recorded one; resume is refused (Rule 9).
	ErrManifestDrift = campaign.ErrManifestDrift
	// ErrReplayDivergence reports fast-forward re-measurement that did
	// not reproduce the journaled samples.
	ErrReplayDivergence = campaign.ErrReplayDivergence
	// ErrCampaignExists reports RunCampaign on a directory that already
	// holds a campaign (resume it instead).
	ErrCampaignExists = campaign.ErrCampaignExists
	// ErrNoCampaign reports a resume/load on a directory without one.
	ErrNoCampaign = campaign.ErrNoCampaign
	// ErrNotJournal reports a campaign journal that is neither empty nor
	// v2, the only encoding read or written; it is left untouched.
	ErrNotJournal = campaign.ErrNotJournal
	// ErrRecorder wraps a journal write failure that aborted collection.
	ErrRecorder = bench.ErrRecorder
)

// Performance-regression gate (package regress): the paper's
// statistics applied to the repo's own benchmarks. A BenchReport is a
// recorded multi-run sample set (`BENCH_*.json`, schema v2 with raw
// per-run samples; schema 1 single-run files are refused);
// CompareBenchReports turns a baseline/candidate pair into
// per-benchmark PASS / REGRESSED / IMPROVED / INCONCLUSIVE verdicts,
// each read off where the RatioCI interval on candidate/baseline sits
// against the effect threshold. cmd/benchjson records reports;
// cmd/benchgate gates on them.
type (
	// BenchReport is one recorded benchmark run set with its Rule 9
	// environment block and optional provenance.
	BenchReport = regress.Report
	// BenchRecord is one benchmark's per-run raw samples.
	BenchRecord = regress.Result
	// BenchProvenance documents where a committed baseline came from.
	BenchProvenance = regress.Provenance
	// GateOptions configures the gate (effect threshold, interval
	// confidence, gated unit); the zero value is usable.
	GateOptions = regress.Options
	// GateReport is a completed gate run: per-benchmark comparisons
	// plus cross-cutting Rule 9 caveats.
	GateReport = regress.GateReport
	// GateComparison is one benchmark's verdict with its evidence.
	GateComparison = regress.Comparison
	// GateVerdict is the per-benchmark conclusion.
	GateVerdict = regress.Verdict
)

// Gate verdicts.
const (
	GatePass         = regress.VerdictPass
	GateRegressed    = regress.VerdictRegressed
	GateImproved     = regress.VerdictImproved
	GateInconclusive = regress.VerdictInconclusive
)

// ParseBenchOutput parses `go test -bench` text output into a
// BenchReport, grouping `-count N` repetitions into per-run samples.
func ParseBenchOutput(r io.Reader) (*BenchReport, error) { return regress.ParseBench(r) }

// CompareBenchReports runs the regression gate over a baseline and a
// candidate report.
func CompareBenchReports(baseline, candidate *BenchReport, opt GateOptions) (*GateReport, error) {
	return regress.Compare(baseline, candidate, opt)
}

// BenchEnvFingerprint hashes an environment block into the short
// identifier provenance records and the gate's Rule 9 drift check use.
func BenchEnvFingerprint(env map[string]string) string { return regress.EnvFingerprint(env) }

// Distributed campaign execution (package shard): partition a sweep's
// canonical config order into shard manifests, run each shard as an
// independent journaled executor (crash and stall accounting,
// reassignment with resume-from-journal), and merge
// the shard journals into one report byte-identical to the
// single-process run. Exhausted-retry shards surface as explicit
// losses, never as silently shorter samples (Rule 4).
type (
	// ShardUnit is one entry of a sweep's canonical config order: ID,
	// pre-assigned seed, config hash, and the raw config an executor
	// rebuilds the measurement from.
	ShardUnit = shard.Unit
	// ShardSweep is the partitioned sweep: the full unit table, its
	// hash, and the shard count.
	ShardSweep = shard.SweepManifest
	// ShardUnitRunner rebuilds a unit's campaign (manifest, plan,
	// measure closure) from its recorded config.
	ShardUnitRunner = shard.UnitRunner
	// ShardExecOptions tunes one executor run (attempt number,
	// progress writer).
	ShardExecOptions = shard.ExecOptions
	// ShardSuperviseOptions tunes the supervisor: retry budget,
	// backoff, seed, log. The liveness timeout is the coordinator's
	// (RemoteCoordinatorOptions.HeartbeatTimeout).
	ShardSuperviseOptions = shard.Options
	// ShardStatus is the supervisor's per-shard outcome accounting.
	ShardStatus = shard.ShardStatus
	// ShardStartFunc launches one executor attempt for a shard.
	ShardStartFunc = shard.StartFunc
	// ShardMergeReport is the deterministic merge of all shard journals
	// with its per-seam drift checks and loss accounting.
	ShardMergeReport = shard.MergeReport
)

// ErrShardDrift reports a shard or sweep manifest that does not match
// the sweep claiming it; the merge is refused (Rule 9).
var ErrShardDrift = shard.ErrShardDrift

// ShardDirName is the canonical directory name of shard i inside a
// sweep directory ("shard-000", "shard-001", ...).
func ShardDirName(i int) string { return shard.ShardDirName(i) }

// NewShardSweep builds a sweep manifest over the given canonical unit
// order, partitioned into the given number of shards.
func NewShardSweep(name string, units []ShardUnit, faultFingerprint string, env ExperimentEnv, shards int) (ShardSweep, error) {
	return shard.NewSweep(name, units, faultFingerprint, env, shards)
}

// CreateShardSweep materializes a sweep directory: sweep.json plus one
// shard-NNN/ directory per shard, each with its shard manifest.
func CreateShardSweep(dir string, s ShardSweep) error { return shard.Create(dir, s) }

// LoadShardSweep reads a sweep directory back, re-verifying its hash.
func LoadShardSweep(dir string) (ShardSweep, error) { return shard.LoadSweep(dir) }

// ExecShard runs one shard to completion as an executor: per-unit
// journaled campaigns, resume-from-journal on reassignment, completed
// units skipped.
func ExecShard(ctx context.Context, shardDir string, r ShardUnitRunner, opt ShardExecOptions) error {
	_, err := shard.ExecShard(ctx, shardDir, r, opt)
	return err
}

// SuperviseShards runs every shard of a sweep under supervision: an
// attempt that crashes, or that its launcher fences as stalled (the
// remote coordinator's StartFunc does, on its liveness timeout), is
// reassigned with exponential backoff, and the shard is reported lost
// after the retry budget.
func SuperviseShards(ctx context.Context, sweepDir string, start ShardStartFunc, opt ShardSuperviseOptions) ([]ShardStatus, error) {
	return shard.Supervise(ctx, sweepDir, start, opt)
}

// MergeShards merges every shard's journals into one deterministic
// report, refusing drifted manifests and checking every merge seam for
// regime shifts (Rule 6).
func MergeShards(sweepDir string) (*ShardMergeReport, error) { return shard.Merge(sweepDir) }

// WriteMergedShardManifest records the merge outcome (per-shard env
// fingerprints, seam checks, loss accounting) as merged.json in the
// sweep directory.
func WriteMergedShardManifest(sweepDir string, r *ShardMergeReport) error {
	return shard.WriteMerged(sweepDir, r)
}

// HashCampaignConfig hashes a config value the way campaign manifests
// do — the hash a ShardUnit must carry for its executor-built manifest
// to verify.
func HashCampaignConfig(v any) (string, error) { return campaign.HashJSON(v) }

// Cross-machine shard execution (package remote): an HTTP/JSON
// transport that plugs remote worker processes into the shard
// supervisor's StartFunc seam. Workers register with a coordinator,
// receive hash-pinned shard manifests, run the journaled executor
// locally, and ship journal chunks back with CRC framing and resumable
// offsets; the coordinator mirrors each shard's files locally, fences
// stale attempts so a zombie worker's late chunks are refused, and
// reassigns lost workers' shards — so the merged report stays
// byte-identical to the single-process run under crashes, stalls, and
// network partitions. Each worker's Rule 9 host environment is
// fingerprinted and recorded per shard; the merge stratifies cross-host
// seams by host rather than pooling across them.
type (
	// RemoteCoordinator accepts worker registrations for one sweep and
	// exposes the StartFunc the shard supervisor launches attempts
	// through.
	RemoteCoordinator = remote.Coordinator
	// RemoteCoordinatorOptions tunes the coordinator (listen address,
	// per-request timeout, assignment retry budget, liveness timeout,
	// seed).
	RemoteCoordinatorOptions = remote.CoordinatorOptions
	// RemoteWorker is a running worker agent: it executes assigned
	// shards locally and ships their journals back.
	RemoteWorker = remote.Worker
	// RemoteWorkerOptions tunes a worker (coordinator URL, listen
	// address, work dir, unit runner, ship interval).
	RemoteWorkerOptions = remote.WorkerOptions
	// RemoteFaultTransport is a seeded, deterministic network-fault
	// injector (drops, delays, duplication, partitions) wrapped around
	// an HTTP transport — for rehearsing partition tolerance.
	RemoteFaultTransport = remote.FaultTransport
)

// NewRemoteCoordinator starts a coordinator serving the sweep in
// sweepDir. Close it when the campaign is done.
func NewRemoteCoordinator(sweepDir string, opt RemoteCoordinatorOptions) (*RemoteCoordinator, error) {
	return remote.NewCoordinator(sweepDir, opt)
}

// StartRemoteWorker starts a worker agent and registers it with its
// coordinator. Close it to cancel its jobs and stop serving.
func StartRemoteWorker(opt RemoteWorkerOptions) (*RemoteWorker, error) {
	return remote.StartWorker(opt)
}

// RemoteHostEnv captures this machine's Rule 9 host environment — the
// record each worker registers and the merge stratifies by.
func RemoteHostEnv() ExperimentEnv { return remote.HostEnv() }

// NewRemoteFaultTransport seeds a deterministic fault injector around
// next (nil for the default HTTP transport).
func NewRemoteFaultTransport(seed uint64, next http.RoundTripper) *RemoteFaultTransport {
	return remote.NewFaultTransport(seed, next)
}

// Harness observability (package telemetry): a lock-cheap metrics
// registry the measurement layers instrument unconditionally,
// hierarchical spans emitted as an out-of-band binary trace, and an
// optional HTTP endpoint serving /metrics, /trace, and net/http/pprof.
// Telemetry never changes report bytes, campaign identity, or RNG
// positions — the bit-identity guarantees hold with it on or off.
type (
	// TelemetryRegistry is a named collection of counters, gauges, and
	// streaming histograms.
	TelemetryRegistry = telemetry.Registry
	// TelemetryServer is a running /metrics + /trace + pprof endpoint.
	TelemetryServer = telemetry.Server
	// TraceSpan is one completed interval of harness work (campaign →
	// sweep → config → collection → analysis).
	TraceSpan = telemetry.Span
	// TelemetrySpanSink receives every completed span; implemented by
	// the chunked binary trace writer.
	TelemetrySpanSink = telemetry.SpanSink
	// BinaryTraceWriter streams spans as chunked binary (the journal
	// v2 encoder: per-chunk string table, varint delta columns) —
	// roughly an order of magnitude smaller than one JSON line per span.
	BinaryTraceWriter = telemetry.BinaryTraceWriter
)

// Telemetry returns the process-wide metrics registry the harness
// instruments (sample counts, retries, watchdog trips, fsync latency,
// worker occupancy, analysis-stage durations, ...).
func Telemetry() *TelemetryRegistry { return telemetry.Default() }

// EnableTelemetryTraceSink arms span tracing with a sink — e.g. a
// BinaryTraceWriter for the chunked binary trace; nil keeps spans only
// in the in-memory ring served by /trace.
func EnableTelemetryTraceSink(sink TelemetrySpanSink) { telemetry.EnableSink(sink) }

// NewBinaryTraceWriter returns a binary trace sink streaming chunks to
// w; the caller owns w and should Flush (or Close) the writer before
// closing it.
func NewBinaryTraceWriter(w io.Writer) *BinaryTraceWriter {
	return telemetry.NewBinaryTraceWriter(w)
}

// ReadBinaryTrace decodes a binary trace file: the spans of every
// whole, CRC-verified chunk, and whether a torn tail was dropped.
func ReadBinaryTrace(data []byte) ([]TraceSpan, bool) {
	return telemetry.ReadBinaryTrace(data)
}

// DisableTelemetryTrace stops span collection and detaches the sink.
func DisableTelemetryTrace() { telemetry.Disable() }

// ServeTelemetry starts the observability endpoint on addr (":0" picks
// a free port; read it back with Addr). Close the server when done.
func ServeTelemetry(addr string) (*TelemetryServer, error) { return telemetry.Serve(addr) }
