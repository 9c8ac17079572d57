package regress

import (
	"fmt"
	"sort"

	"repro/internal/ci"
	"repro/internal/stats"
)

// Verdict is the gate's per-benchmark conclusion.
type Verdict string

// Every verdict reads the ci.RatioCI interval [lo, hi] on the
// candidate/baseline ratio against the threshold t.
const (
	// VerdictPass: the whole interval lies inside [1−t, 1+t], so any
	// shift the data support is below the threshold.
	VerdictPass Verdict = "PASS"
	// VerdictRegressed: lo > 1+t, the candidate is slower by more than
	// the threshold at the configured confidence — noise-level wobble
	// never reaches this verdict.
	VerdictRegressed Verdict = "REGRESSED"
	// VerdictImproved: hi < 1−t, faster by more than the threshold.
	VerdictImproved Verdict = "IMPROVED"
	// VerdictInconclusive: the comparison cannot support any claim —
	// the interval straddles 1−t or 1+t, or there are too few (or no
	// positive) samples for an interval at all. A non-result too wide
	// to resolve the threshold is not a PASS.
	VerdictInconclusive Verdict = "INCONCLUSIVE"
)

// Options configures a gate run. The zero value is usable: 5% effect
// threshold, 95% CIs. The GateReport records them after defaulting, so
// a verdict table carries the thresholds it was judged under.
type Options struct {
	// Threshold is the minimum relative shift treated as a real effect
	// (0.05 = 5%). Shifts below it never fail the gate, however well
	// resolved — the effect-size discipline of §3.2.2.
	Threshold float64 `json:"threshold"`
	// Confidence is the level for the ratio and median CIs (default
	// 0.95).
	Confidence float64 `json:"confidence"`
	// Unit is the gated metric (default "ns/op"). Other recorded units
	// are reported as informational deltas.
	Unit string `json:"unit"`
}

func (o Options) withDefaults() Options {
	if o.Threshold <= 0 {
		o.Threshold = 0.05
	}
	if o.Confidence <= 0 || o.Confidence >= 1 {
		o.Confidence = 0.95
	}
	if o.Unit == "" {
		o.Unit = "ns/op"
	}
	return o
}

// MetricDelta is an informational (non-gated) metric comparison:
// median baseline vs candidate and the relative shift.
type MetricDelta struct {
	Unit      string  `json:"unit"`
	Baseline  float64 `json:"baseline"`
	Candidate float64 `json:"candidate"`
	Delta     float64 `json:"delta"` // relative; NaN encoded as 0 when baseline is 0
}

// Comparison is one benchmark's full verdict with the statistical
// evidence behind it, so the reported conclusion carries its basis
// (Rule 5: report CIs and sample counts, not bare means).
type Comparison struct {
	Name    string `json:"name"`
	Package string `json:"package,omitempty"`
	Unit    string `json:"unit"`

	Verdict Verdict `json:"verdict"`
	// Reason is the one-line human-readable basis for the verdict.
	Reason string `json:"reason"`

	// Sample accounting: every run on each side. The medians, their
	// CIs, Delta and Ratio all read these same runs.
	BaselineN  int `json:"baseline_n"`
	CandidateN int `json:"candidate_n"`

	// Medians and their nonparametric CIs (nil when n < 6, the Le
	// Boudec minimum).
	BaselineMedian  float64      `json:"baseline_median"`
	CandidateMedian float64      `json:"candidate_median"`
	BaselineCI      *ci.Interval `json:"baseline_ci,omitempty"`
	CandidateCI     *ci.Interval `json:"candidate_ci,omitempty"`

	// Delta is the relative median shift (candidate − baseline) /
	// baseline; positive = slower for cost metrics like ns/op.
	Delta float64 `json:"delta"`
	// Ratio is the ci.RatioCI interval on candidate/baseline the
	// verdict is read from (nil when too few or non-positive samples
	// leave none).
	Ratio *ci.Interval `json:"ratio,omitempty"`

	// Secondary holds the non-gated metric deltas (B/op, allocs/op,
	// custom units), sorted by unit.
	Secondary []MetricDelta `json:"secondary,omitempty"`
}

// Caveats lists everything that weakens this comparison's verdict as
// evidence — the Rule 9 disclosures a reader needs before acting on a
// REGRESSED or IMPROVED row: environment drift between the two
// collections (the shared-runner false-positive mode narrated in
// EXPERIMENTS.md). envMismatch is the report-level fingerprint verdict.
// A PASS or INCONCLUSIVE row asks no action of its reader, so it
// carries no caveat; the report's warning line covers it.
func (c Comparison) Caveats(envMismatch bool) []string {
	if envMismatch && (c.Verdict == VerdictRegressed || c.Verdict == VerdictImproved) {
		return []string{"env drift"}
	}
	return nil
}

// GateReport is the whole gate run: per-benchmark comparisons plus the
// cross-cutting caveats (benchmarks present on only one side,
// environment fingerprint mismatch).
type GateReport struct {
	Options     Options      `json:"options"`
	Comparisons []Comparison `json:"comparisons"`
	// MissingInCandidate / MissingInBaseline list benchmark keys found
	// on only one side (renames, new benchmarks, deletions).
	MissingInCandidate []string `json:"missing_in_candidate,omitempty"`
	MissingInBaseline  []string `json:"missing_in_baseline,omitempty"`
	// EnvMismatch notes a Rule 9 caveat: the two reports carry
	// different environment fingerprints, so hardware/toolchain drift
	// may explain any shift.
	EnvMismatch bool   `json:"env_mismatch"`
	EnvNote     string `json:"env_note,omitempty"`
}

// Counts returns the number of comparisons per verdict.
func (g *GateReport) Counts() map[Verdict]int {
	m := map[Verdict]int{}
	for _, c := range g.Comparisons {
		m[c.Verdict]++
	}
	return m
}

// Regressed reports whether any benchmark regressed — the gate's
// exit-code condition.
func (g *GateReport) Regressed() bool {
	for _, c := range g.Comparisons {
		if c.Verdict == VerdictRegressed {
			return true
		}
	}
	return false
}

// Compare runs the gate: for every benchmark present in both reports
// it computes the medians with their rank CIs and the ratio interval
// over all runs, and issues the interval's verdict.
// Comparisons are ordered by benchmark key for deterministic output.
func Compare(baseline, candidate *Report, opt Options) (*GateReport, error) {
	if err := baseline.Validate(); err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	if err := candidate.Validate(); err != nil {
		return nil, fmt.Errorf("candidate: %w", err)
	}
	g := &GateReport{Options: opt.withDefaults()}

	baseIdx := indexByKey(baseline)
	candIdx := indexByKey(candidate)
	keys := make([]string, 0, len(baseIdx))
	for k := range baseIdx {
		if _, ok := candIdx[k]; ok {
			keys = append(keys, k)
		} else {
			g.MissingInCandidate = append(g.MissingInCandidate, k)
		}
	}
	for k := range candIdx {
		if _, ok := baseIdx[k]; !ok {
			g.MissingInBaseline = append(g.MissingInBaseline, k)
		}
	}
	sort.Strings(keys)
	sort.Strings(g.MissingInCandidate)
	sort.Strings(g.MissingInBaseline)

	bfp, cfp := EnvFingerprint(baseline.Env), EnvFingerprint(candidate.Env)
	if bfp != cfp {
		g.EnvMismatch = true
		g.EnvNote = fmt.Sprintf("environment fingerprints differ (baseline %s, candidate %s): "+
			"hardware or toolchain drift may explain shifts (Rule 9)", bfp, cfp)
	}

	for _, k := range keys {
		b, c := baseIdx[k], candIdx[k]
		g.Comparisons = append(g.Comparisons, compareOne(b, c, g.Options))
	}
	return g, nil
}

func indexByKey(rep *Report) map[string]Result {
	m := make(map[string]Result, len(rep.Results))
	for _, r := range rep.Results {
		m[r.Key()] = r
	}
	return m
}

func compareOne(b, c Result, opt Options) Comparison {
	cmp := Comparison{Name: b.Name, Package: b.Package, Unit: opt.Unit}

	bs, cs := b.Sample(opt.Unit), c.Sample(opt.Unit)
	cmp.BaselineN, cmp.CandidateN = len(bs), len(cs)
	cmp.Secondary = secondaryDeltas(b, c, opt.Unit)

	if len(bs) == 0 || len(cs) == 0 {
		cmp.Verdict = VerdictInconclusive
		cmp.Reason = fmt.Sprintf("no %s samples on one side", opt.Unit)
		return cmp
	}
	cmp.BaselineMedian = stats.Median(bs)
	cmp.CandidateMedian = stats.Median(cs)
	if cmp.BaselineMedian != 0 {
		cmp.Delta = (cmp.CandidateMedian - cmp.BaselineMedian) / cmp.BaselineMedian
	}
	if iv, err := ci.MedianCI(bs, opt.Confidence); err == nil {
		cmp.BaselineCI = &iv
	}
	if iv, err := ci.MedianCI(cs, opt.Confidence); err == nil {
		cmp.CandidateCI = &iv
	}

	// A rank interval bounds each run's influence by itself, so no run
	// is dropped as an outlier first.
	iv, err := ci.RatioCI(bs, cs, opt.Confidence)
	if err != nil {
		cmp.Verdict = VerdictInconclusive
		cmp.Reason = fmt.Sprintf("n=%d vs n=%d: no %.0f%% ratio interval: %v", len(bs), len(cs), 100*opt.Confidence, err)
		return cmp
	}
	cmp.Ratio = &iv

	t := opt.Threshold
	basis := fmt.Sprintf("ratio %.4g [%.4g, %.4g]", iv.Center, iv.Lo, iv.Hi)
	switch {
	case iv.Lo > 1+t:
		cmp.Verdict = VerdictRegressed
		cmp.Reason = fmt.Sprintf("%s > %.4g: slower by more than %.3g%%", basis, 1+t, 100*t)
	case iv.Hi < 1-t:
		cmp.Verdict = VerdictImproved
		cmp.Reason = fmt.Sprintf("%s < %.4g: faster by more than %.3g%%", basis, 1-t, 100*t)
	case iv.Lo >= 1-t && iv.Hi <= 1+t:
		cmp.Verdict = VerdictPass
		cmp.Reason = fmt.Sprintf("%s inside [%.4g, %.4g]", basis, 1-t, 1+t)
	default:
		cmp.Verdict = VerdictInconclusive
		cmp.Reason = fmt.Sprintf("%s: interval straddles ±%.3g%%", basis, 100*t)
	}
	return cmp
}

// secondaryDeltas compares the non-gated units present on both sides.
func secondaryDeltas(b, c Result, gated string) []MetricDelta {
	units := make([]string, 0, len(b.Samples))
	for u := range b.Samples {
		if u == gated {
			continue
		}
		if _, ok := c.Samples[u]; ok {
			units = append(units, u)
		}
	}
	sort.Strings(units)
	out := make([]MetricDelta, 0, len(units))
	for _, u := range units {
		mb := stats.Median(b.Samples[u])
		mc := stats.Median(c.Samples[u])
		d := MetricDelta{Unit: u, Baseline: mb, Candidate: mc}
		if mb != 0 {
			d.Delta = (mc - mb) / mb
		}
		out = append(out, d)
	}
	return out
}
