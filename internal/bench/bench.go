// Package bench is the measurement controller codifying the paper's
// experimental-design rules: warmup discard (§4.1.2), fixed or adaptive
// sample counts driven by confidence-interval width (§4.2.2, Rule 5),
// single-event measurement for exact rank statistics (§4.2.1), explicit
// outlier policy with mandatory reporting (§3.1.3), normality diagnosis
// (Rule 6), ANOVA-gated summarization across processes (Rule 10), and —
// because real systems misbehave — a resilient collection mode that
// survives sample failures, accounts every loss, and detects mid-stream
// regime shifts (see Resilience).
package bench

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/ci"
	"repro/internal/htest"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/timer"
)

// Telemetry: the measurement loop's own behaviour, observable without
// perturbing it (see internal/telemetry's invariant — these writes never
// reach a report or an RNG stream). Metrics resolve once; each event is
// a single atomic add.
var (
	telSamples     = telemetry.Default().Counter("bench.samples")
	telWarmups     = telemetry.Default().Counter("bench.warmups")
	telRetries     = telemetry.Default().Counter("bench.retries")
	telLosses      = telemetry.Default().Counter("bench.losses")
	telPanics      = telemetry.Default().Counter("bench.panics")
	telWatchdog    = telemetry.Default().Counter("bench.watchdog_trips")
	telAnalysisUs  = telemetry.Default().Histogram("bench.analysis_us")
	telIntervalsUs = telemetry.Default().Histogram("bench.analysis.intervals_us")
	telShiftUs     = telemetry.Default().Histogram("bench.analysis.changepoint_us")
	telNormalityUs = telemetry.Default().Histogram("bench.analysis.normality_us")
)

// OutlierPolicy selects how outliers are treated. The paper recommends
// robust measures over removal; when removal is unavoidable the count
// must be reported (it is, in Result.OutliersRemoved).
type OutlierPolicy struct {
	// Remove enables Tukey-fence removal before summary computation.
	Remove bool
	// TukeyK is the fence constant (default 1.5; 3.0 is conservative).
	TukeyK float64
}

// Plan configures one measurement campaign.
//
// Zero values select documented defaults; nonsensical values (negative
// counts, out-of-range probabilities) are rejected with an error
// wrapping ErrBadPlan rather than silently clamped.
type Plan struct {
	// Warmup iterations are measured but excluded from analysis
	// (working-set establishment, §4.1.2). Zero means no warmup;
	// negative values are rejected.
	Warmup int
	// MinSamples is collected unconditionally. Zero selects the default
	// of 10; values 1–5 are raised to 6, the nonparametric-CI minimum
	// (§4.2.2 requires n > 5); negative values are rejected.
	MinSamples int
	// MaxSamples bounds the adaptive phase. Zero selects the default of
	// 1000 (and is raised to MinSamples when that is larger); negative
	// values are rejected.
	MaxSamples int
	// Confidence is the CI level used for the stopping rule and the
	// reported intervals. Zero selects the default 0.95; anything else
	// outside (0, 1) is rejected.
	Confidence float64
	// RelErr, when positive, enables adaptive stopping: measure until the
	// median CI's relative half-width is at most RelErr. Zero disables
	// the adaptive phase; negative values or values >= 1 (a "relative
	// error" of 100% or more never converges meaningfully) are rejected.
	RelErr float64
	// BatchSize is the adaptive recheck cadence. Zero selects the
	// default of 10; negative values are rejected.
	BatchSize int
	// Outliers is the outlier policy (default: keep everything).
	Outliers OutlierPolicy
	// EventsPerSample aggregates k consecutive events into one recorded
	// observation (their mean). §4.2.1 allows this when timer overhead
	// or resolution is insufficient for single events, at the cost of
	// losing per-event confidence intervals and exact rank statistics —
	// Result.ResolutionLost flags that loss. Zero selects the
	// recommended 1; negative values are rejected.
	EventsPerSample int
	// Timer, when non-nil, validates every recorded observation against
	// the calibration's §4.2.1 quality thresholds; violations are
	// counted in Result.TimerWarnings. Observations are in seconds.
	Timer *timer.Calibration
	// Resilience, when non-nil, arms the fault-tolerant collection loop:
	// per-sample watchdog, fault-suspect value ceiling, bounded
	// immediate retry, panic recovery, and graceful degradation into a
	// partial Result with explicit loss accounting (Rule 4 in spirit:
	// report all data, including the failures).
	Resilience *Resilience
	// Record, when non-nil, observes every collection event as it
	// happens — the hook a durable write-ahead journal attaches to
	// (internal/campaign). A Record error aborts the campaign wrapped in
	// ErrRecorder. Excluded from serialized plan descriptions.
	Record Recorder `json:"-"`
	// Resume, when non-nil, preloads the collection state replayed from
	// a journal so an interrupted campaign continues exactly where it
	// stopped. The caller is responsible for fast-forwarding a
	// deterministic measure source by Resume.Calls() invocations first
	// (internal/campaign does both). Excluded from serialized plans.
	Resume *ResumeState `json:"-"`
}

// ErrBadPlan reports a Plan field with a nonsensical value.
var ErrBadPlan = errors.New("bench: invalid plan")

func (p Plan) withDefaults() (Plan, error) {
	switch {
	case p.Warmup < 0:
		return p, fmt.Errorf("%w: negative Warmup %d", ErrBadPlan, p.Warmup)
	case p.MinSamples < 0:
		return p, fmt.Errorf("%w: negative MinSamples %d", ErrBadPlan, p.MinSamples)
	case p.MaxSamples < 0:
		return p, fmt.Errorf("%w: negative MaxSamples %d", ErrBadPlan, p.MaxSamples)
	case p.BatchSize < 0:
		return p, fmt.Errorf("%w: negative BatchSize %d", ErrBadPlan, p.BatchSize)
	case p.Confidence != 0 && !(p.Confidence > 0 && p.Confidence < 1):
		return p, fmt.Errorf("%w: Confidence %g outside (0, 1)", ErrBadPlan, p.Confidence)
	case !(p.RelErr >= 0 && p.RelErr < 1):
		return p, fmt.Errorf("%w: RelErr %g outside [0, 1)", ErrBadPlan, p.RelErr)
	case p.EventsPerSample < 0:
		return p, fmt.Errorf("%w: negative EventsPerSample %d", ErrBadPlan, p.EventsPerSample)
	}
	if p.MinSamples == 0 {
		p.MinSamples = 10
	} else if p.MinSamples < 6 {
		p.MinSamples = 6 // nonparametric CIs need n > 5
	}
	if p.MaxSamples == 0 {
		p.MaxSamples = 1000
	}
	if p.MaxSamples < p.MinSamples {
		p.MaxSamples = p.MinSamples
	}
	if p.Confidence == 0 {
		p.Confidence = 0.95
	}
	if p.BatchSize == 0 {
		p.BatchSize = 10
	}
	if p.Outliers.Remove && p.Outliers.TukeyK <= 0 {
		p.Outliers.TukeyK = 1.5
	}
	if p.EventsPerSample == 0 {
		p.EventsPerSample = 1
	}
	if p.Resilience != nil {
		r, err := p.Resilience.withDefaults()
		if err != nil {
			return p, err
		}
		p.Resilience = &r
	}
	return p, nil
}

// StopReason explains why sample collection ended.
type StopReason string

const (
	// StopFixed: no adaptive target was set; MinSamples were collected.
	StopFixed StopReason = "fixed sample count"
	// StopConverged: the CI reached the requested relative width.
	StopConverged StopReason = "confidence interval converged"
	// StopMaxSamples: the budget ran out before convergence.
	StopMaxSamples StopReason = "sample budget exhausted before convergence"
	// StopDegraded: the resilient loop abandoned collection because too
	// many sample attempts failed (see Resilience.MaxLossFraction); the
	// Result is partial and carries the loss accounting.
	StopDegraded StopReason = "campaign degraded by sample loss"
	// StopInterrupted: the campaign's context was cancelled (Ctrl-C, a
	// wall-clock budget, a shutdown) and collection checkpointed cleanly
	// instead of losing work. The Result is partial; a journaled
	// campaign (internal/campaign) can resume exactly where it stopped.
	StopInterrupted StopReason = "campaign interrupted"
)

// shiftAlpha is the significance level at which the Pettitt change-point
// detector flags a mid-campaign regime shift. 1% keeps the false-alarm
// rate low on heavy-tailed (but stationary) latency streams.
const shiftAlpha = 0.01

// minShiftSamples is the smallest retained sample the change-point
// detector runs on.
const minShiftSamples = 12

// Result is a fully analyzed measurement campaign. All fields refer to
// the post-warmup, post-outlier-policy sample except Raw, which keeps
// every retained observation for downstream analysis or export.
type Result struct {
	Raw             []float64
	WarmupDiscarded int
	OutliersRemoved int
	Stop            StopReason
	Summary         stats.Summary
	MeanCI          ci.Interval
	MedianCI        ci.Interval
	ShapiroW        float64
	ShapiroP        float64
	PlausiblyNormal bool
	Deterministic   bool // all retained observations identical
	// ResolutionLost is true when EventsPerSample > 1: CIs and rank
	// statistics then describe block means, not single events (§4.2.1).
	ResolutionLost bool
	// TimerWarnings counts observations below the timer calibration's
	// minimum reliable interval (0 when no calibration was supplied).
	TimerWarnings int

	// Resilient-collection accounting (all zero for clean campaigns).
	// Attempts counts observation attempts including retries; Retries
	// counts attempts beyond the first per observation slot;
	// SamplesLost counts slots abandoned after the retry budget;
	// Panics counts recovered measure panics.
	Attempts    int
	Retries     int
	SamplesLost int
	Panics      int

	// ShiftDetected reports a mid-campaign regime shift: Pettitt's
	// nonparametric change-point test over the ordered retained sample
	// is significant at the 1% level. ShiftIndex is the last index of
	// the first regime; ShiftP the approximate p-value (NaN when the
	// detector could not run).
	ShiftDetected bool
	ShiftIndex    int
	ShiftP        float64

	// FaultSuspected is true when anything above indicates the campaign
	// was contaminated: lost or retried samples, recovered panics, or a
	// detected regime shift. A FaultSuspected result must not be
	// reported as a clean measurement (Rule 4: report all data,
	// including the failures).
	FaultSuspected bool
}

// Errors returned by the campaign runners.
var (
	// ErrNoMeasure is returned when Run is invoked without a measure func.
	ErrNoMeasure = errors.New("bench: nil measure function")
	// ErrTooFewSamples is returned (wrapped, with context) when a sample
	// is too small to analyze; callers can branch on it with errors.Is.
	ErrTooFewSamples = errors.New("bench: too few samples")
)

// Run executes a measurement campaign: warmup, collection (fixed or
// adaptive), outlier policy, and statistical analysis. With
// Plan.Resilience set, sample failures (panics, watchdog timeouts,
// ceiling-violating observations) are retried and accounted instead of
// aborting; without it, a measure panic still surfaces as an ordinary
// error rather than crashing the campaign.
func Run(plan Plan, measure func() float64) (Result, error) {
	return RunCtx(context.Background(), plan, measure)
}

// RunCtx is Run under a context: cancellation (Ctrl-C, a wall-clock
// budget) is checked between observation slots and checkpoints the
// campaign cleanly with StopInterrupted instead of losing the collected
// samples. A partial result with at least two observations is analyzed
// and returned with a nil error.
func RunCtx(ctx context.Context, plan Plan, measure func() float64) (Result, error) {
	if measure == nil {
		return Result{}, ErrNoMeasure
	}
	return run(ctx, plan, func() (float64, error) { return measure(), nil })
}

// RunErr is Run for error-aware measure functions: a returned error
// fails that sample attempt, which Plan.Resilience retries and, past its
// budget, records in Result.SamplesLost. Without resilience the first
// error aborts the campaign.
func RunErr(plan Plan, measure func() (float64, error)) (Result, error) {
	return RunErrCtx(context.Background(), plan, measure)
}

// RunErrCtx is RunErr under a context; see RunCtx for the cancellation
// contract.
func RunErrCtx(ctx context.Context, plan Plan, measure func() (float64, error)) (Result, error) {
	if measure == nil {
		return Result{}, ErrNoMeasure
	}
	return run(ctx, plan, measure)
}

func run(ctx context.Context, plan Plan, measure func() (float64, error)) (Result, error) {
	p, err := plan.withDefaults()
	if err != nil {
		return Result{}, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, collectSpan := telemetry.StartSpan(ctx, "collection",
		fmt.Sprintf("min=%d max=%d", p.MinSamples, p.MaxSamples))
	defer collectSpan.End()
	rs := p.Resilience
	var res Result
	res.ResolutionLost = p.EventsPerSample > 1

	minReliable := 0.0
	if p.Timer != nil {
		minReliable = p.Timer.MinReliableInterval().Seconds()
	}

	// calls counts measure invocations so journaled events carry the
	// fast-forward position for deterministic resume; counting wraps the
	// measure function itself so every path (warmup, retries, timer-
	// abandoned attempts) is included. Atomic because a watchdog-abandoned
	// goroutine (Resilience.SampleTimeout) may still be running its
	// measure call when the next attempt starts.
	var calls atomic.Int64
	calls.Store(int64(p.Resume.Calls()))
	counted := func() (float64, error) {
		calls.Add(1)
		return measure()
	}
	emit := func(kind EventKind, v float64) error {
		if p.Record == nil {
			return nil
		}
		if err := p.Record.Record(Event{Kind: kind, Value: v, Calls: int(calls.Load())}); err != nil {
			return fmt.Errorf("%w: %v", ErrRecorder, err)
		}
		return nil
	}

	// observation measures one recorded value: the mean of k consecutive
	// guarded events (k = 1 keeps single-event resolution, the paper's
	// recommendation). The first failing event fails the observation.
	observation := func() (float64, error) {
		sum := 0.0
		for i := 0; i < p.EventsPerSample; i++ {
			v, err := rs.guard(counted)
			if err != nil {
				return 0, err
			}
			sum += v
		}
		v := sum / float64(p.EventsPerSample)
		if minReliable > 0 && v < minReliable {
			res.TimerWarnings++
		}
		return v, nil
	}

	// observe adds retries and the fault-suspect value
	// ceiling on top of observation, journaling every event. Without
	// resilience it is a single attempt whose error aborts the campaign
	// (lost = false, err != nil).
	observe := func() (float64, bool, error) {
		if rs == nil {
			res.Attempts++
			v, err := observation()
			if err != nil {
				return 0, false, err
			}
			telSamples.Inc()
			return v, true, emit(EventSample, v)
		}
		for attempt := 0; attempt <= rs.MaxRetries; attempt++ {
			if attempt > 0 {
				res.Retries++
				telRetries.Inc()
				if err := emit(EventRetry, 0); err != nil {
					return 0, false, err
				}
			}
			res.Attempts++
			v, err := observation()
			if err != nil {
				if errors.Is(err, ErrMeasurePanic) {
					res.Panics++
					telPanics.Inc()
					if jerr := emit(EventPanic, 0); jerr != nil {
						return 0, false, jerr
					}
				}
				continue
			}
			if rs.ValueCeiling > 0 && v >= rs.ValueCeiling {
				continue // fault-suspect observation: discard and retry
			}
			telSamples.Inc()
			return v, true, emit(EventSample, v)
		}
		res.SamplesLost++
		telLosses.Inc()
		return 0, false, emit(EventLoss, 0)
	}

	// degraded reports whether the loss budget is exhausted: after a
	// minimal probe, more than MaxLossFraction of attempts failed.
	degraded := func(collected int) bool {
		if rs == nil {
			return false
		}
		tried := collected + res.SamplesLost
		return tried >= 10 && float64(res.SamplesLost) > rs.MaxLossFraction*float64(tried)
	}

	// Preload journaled state when resuming: the retained sample, loss
	// accounting, warmup position, and the adaptive loop's batch
	// alignment all continue exactly where the interrupted run stopped.
	var xs []float64
	warmupDone := 0
	aslots := 0
	if p.Resume != nil {
		st := fold(p.Resume.Events, p.MinSamples)
		xs = st.samples
		warmupDone = st.warmup
		aslots = st.aslots
		res.WarmupDiscarded = st.warmup
		res.Retries = st.retries
		res.SamplesLost = st.losses
		res.Panics = st.panics
		res.Attempts = len(st.samples) + st.losses + st.retries
	}

	res.Stop = StopFixed
	for i := warmupDone; i < p.Warmup; i++ {
		if ctx.Err() != nil {
			res.Stop = StopInterrupted
			break
		}
		if _, err := rs.guard(counted); err != nil && rs == nil {
			return res, fmt.Errorf("bench: warmup failed: %w", err)
		}
		res.WarmupDiscarded++
		telWarmups.Inc()
		if err := emit(EventWarmup, 0); err != nil {
			return res, err
		}
	}

	if xs == nil {
		xs = make([]float64, 0, p.MinSamples)
	}
	for res.Stop != StopInterrupted && len(xs) < p.MinSamples {
		if ctx.Err() != nil {
			res.Stop = StopInterrupted
			break
		}
		v, ok, err := observe()
		if err != nil {
			return res, fmt.Errorf("bench: sample %d failed: %w", len(xs), err)
		}
		if ok {
			xs = append(xs, v)
		} else if degraded(len(xs)) {
			res.Stop = StopDegraded
			break
		}
	}

	if p.RelErr > 0 && res.Stop != StopDegraded && res.Stop != StopInterrupted {
		rule := ci.StoppingRule{
			Confidence: p.Confidence,
			RelErr:     p.RelErr,
			BatchSize:  p.BatchSize,
		}
		res.Stop = StopMaxSamples
		// Convergence is rechecked at slot counts aligned on BatchSize
		// (not on "whenever collection happens to restart"), so a
		// resumed campaign makes its Done decisions at exactly the same
		// points an uninterrupted one does — a requirement for
		// bit-identical resume.
	adaptive:
		for {
			if len(xs) >= p.MaxSamples || aslots%p.BatchSize == 0 {
				if done, _ := rule.Done(xs); done {
					res.Stop = StopConverged
					break
				}
				if len(xs) >= p.MaxSamples {
					break
				}
			}
			if ctx.Err() != nil {
				res.Stop = StopInterrupted
				break
			}
			v, ok, err := observe()
			aslots++
			if err != nil {
				return res, fmt.Errorf("bench: sample %d failed: %w", len(xs), err)
			}
			if ok {
				xs = append(xs, v)
			} else if degraded(len(xs)) {
				res.Stop = StopDegraded
				break adaptive
			}
		}
	}

	if p.Outliers.Remove {
		kept, out := stats.TukeyFilter(xs, p.Outliers.TukeyK)
		res.OutliersRemoved = len(out)
		xs = kept
	}
	res.Raw = xs
	return analyze(ctx, res, xs, p.Confidence)
}

// Analyze computes the full statistical report for an existing sample
// (e.g. data loaded from a CSV file) at the given confidence level. As
// in Plan, 0 selects 0.95; any other level outside (0, 1) returns an
// error wrapping ci.ErrConfidence. Samples with fewer than two
// observations return an error wrapping ErrTooFewSamples.
func Analyze(xs []float64, confidence float64) (Result, error) {
	if confidence == 0 {
		confidence = 0.95
	} else if !(confidence > 0 && confidence < 1) {
		return Result{}, fmt.Errorf("%w: got %g", ci.ErrConfidence, confidence)
	}
	return analyze(context.Background(), Result{Raw: xs, Stop: StopFixed}, xs, confidence)
}

// analyze computes the statistical report over one shared stats.Sample,
// so the sample is sorted exactly once however many statistics read it.
// The three stages — intervals, the change-point scan, and the normality
// diagnostics — run serially. On two procs, fanning them out over
// goroutines took 58.6 µs against 50.9 µs serial at n=200, and saved
// 26 µs, within the run-to-run spread, at n=1000: microseconds once per
// campaign (EXPERIMENTS.md, "Parallel knobs on two cores").
func analyze(ctx context.Context, res Result, xs []float64, confidence float64) (Result, error) {
	_, span := telemetry.StartSpan(ctx, "analysis", fmt.Sprintf("n=%d", len(xs)))
	defer span.End()
	t0 := time.Now()
	defer func() { telAnalysisUs.Observe(telemetry.Us(time.Since(t0))) }()

	res.ShiftP = math.NaN()
	if len(xs) < 2 {
		return res, fmt.Errorf("%w: only %d observations retained", ErrTooFewSamples, len(xs))
	}
	smp := stats.NewSample(xs)
	res.Summary = smp.Summarize()
	res.Deterministic = res.Summary.Min == res.Summary.Max

	start := time.Now()
	if iv, err := ci.MeanCISample(smp, confidence); err == nil {
		res.MeanCI = iv
	}
	if iv, err := ci.MedianCISample(smp, confidence); err == nil {
		res.MedianCI = iv
	}
	observeStage(telIntervalsUs, start)

	// Contamination check: the ordered stream must be one regime
	// (§3.1.3's iid requirement; a mid-campaign shift silently mixes
	// distributions and invalidates every summary below).
	start = time.Now()
	if len(xs) >= minShiftSamples && !res.Deterministic {
		if cp, err := htest.Pettitt(xs); err == nil {
			res.ShiftP = cp.P
			res.ShiftIndex = cp.Index
			res.ShiftDetected = cp.Significant(shiftAlpha)
		}
	}
	observeStage(telShiftUs, start)
	res.FaultSuspected = res.SamplesLost > 0 || res.Retries > 0 ||
		res.Panics > 0 || res.ShiftDetected

	start = time.Now()
	if !res.Deterministic {
		res.ShapiroW, res.ShapiroP = math.NaN(), math.NaN()
		if n := len(xs); n <= 5000 {
			if sw, err := htest.ShapiroWilkSorted(smp.Sorted()); err == nil {
				res.ShapiroW, res.ShapiroP = sw.Stat, sw.P
				res.PlausiblyNormal = sw.P >= 0.05 ||
					(n > 1000 && stats.QQCorrelationSorted(smp.Sorted()) > 0.999)
			}
		} else if sw, err := htest.ShapiroWilk(xs[:5000]); err == nil {
			// Above Shapiro–Wilk's range: report W over the leading 5000
			// observations; the plausibility predicate stays false.
			res.ShapiroW, res.ShapiroP = sw.Stat, sw.P
		}
	}
	observeStage(telNormalityUs, start)
	return res, nil
}

// observeStage records one analysis stage's wall-clock duration
// (deferred with time.Now() evaluated at stage entry).
func observeStage(h *telemetry.Histogram, start time.Time) {
	h.Observe(telemetry.Us(time.Since(start)))
}

// PreferredCenter returns the summary the paper's decision tree
// recommends reporting: the mean with its CI when the data is plausibly
// normal (or deterministic), otherwise the median with its nonparametric
// CI (§3.1.2–3.1.3).
func (r Result) PreferredCenter() (label string, iv ci.Interval) {
	if r.Deterministic || r.PlausiblyNormal {
		return "mean", r.MeanCI
	}
	return "median", r.MedianCI
}

// String gives a one-line human summary, including the fault accounting
// whenever the campaign was not clean.
func (r Result) String() string {
	label, iv := r.PreferredCenter()
	s := fmt.Sprintf("n=%d %s=%s (stop: %s, outliers removed: %d)",
		r.Summary.N, label, iv, r.Stop, r.OutliersRemoved)
	if r.FaultSuspected {
		s += fmt.Sprintf(" [FAULT SUSPECTED: lost=%d retries=%d panics=%d shift=%v]",
			r.SamplesLost, r.Retries, r.Panics, r.ShiftDetected)
	}
	return s
}
