package regress

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"
	"testing"

	"repro/internal/ci"
	"repro/internal/stats"
)

// reportFrom builds a v2 report holding one benchmark per name with
// the given ns/op sample columns.
func reportFrom(env map[string]string, benches map[string][]float64) *Report {
	rep := &Report{Schema: SchemaVersion, Env: env}
	names := make([]string, 0, len(benches))
	for name := range benches {
		names = append(names, name)
	}
	sort.Strings(names) // deterministic result order (Compare sorts anyway)
	for _, name := range names {
		samples := benches[name]
		iters := make([]int64, len(samples))
		for i := range iters {
			iters[i] = 1
		}
		rep.Results = append(rep.Results, Result{
			Name:       name,
			Package:    "repro",
			Iterations: iters,
			Samples:    map[string][]float64{"ns/op": samples},
		})
	}
	return rep
}

func draw(rng *rand.Rand, n int, mean, sd float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = mean + sd*rng.NormFloat64()
	}
	return xs
}

var testEnv = map[string]string{"goos": "linux", "cpu": "test"}

// TestNoFalsePositives is the gate's false-positive control (acceptance
// criterion): across 100 seeded trials of baseline and candidate drawn
// from the SAME distribution, no benchmark may be reported REGRESSED
// (or IMPROVED) — the effect-size threshold must absorb the ~5% of
// trials whose ratio interval misses 1 by chance.
func TestNoFalsePositives(t *testing.T) {
	const trials = 100
	regressed, improved, inconclusive := 0, 0, 0
	for seed := uint64(1); seed <= trials; seed++ {
		rng := rand.New(rand.NewPCG(seed, seed))
		base := reportFrom(testEnv, map[string][]float64{
			"BenchmarkSame": draw(rng, 20, 1000, 20), // 2% CoV, n=20
		})
		cand := reportFrom(testEnv, map[string][]float64{
			"BenchmarkSame": draw(rng, 20, 1000, 20),
		})
		g, err := Compare(base, cand, Options{Threshold: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		switch g.Comparisons[0].Verdict {
		case VerdictRegressed:
			regressed++
			t.Errorf("seed %d: false REGRESSED: %s", seed, g.Comparisons[0].Reason)
		case VerdictImproved:
			improved++
			t.Errorf("seed %d: false IMPROVED: %s", seed, g.Comparisons[0].Reason)
		case VerdictInconclusive:
			inconclusive++
		}
	}
	if regressed != 0 || improved != 0 {
		t.Fatalf("false positives across %d same-distribution trials: %d REGRESSED, %d IMPROVED",
			trials, regressed, improved)
	}
	if inconclusive > trials/10 {
		t.Errorf("%d/%d trials inconclusive; gate should be decisive at this n and noise", inconclusive, trials)
	}
}

// TestDetectsMedianShift is the power side of the acceptance criterion:
// a +20% median shift, sampled at the §4.2.2-planned n for the 5%
// threshold, must be flagged REGRESSED with a ratio interval above 1.
func TestDetectsMedianShift(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 42))
	const mean, sd = 1000.0, 200.0 // 20% CoV: genuinely noisy benchmark

	// Plan the sample size from a pilot, exactly as a caller would.
	pilot := draw(rng, 30, mean, sd)
	need, err := ci.RequiredSamples(pilot, 0.95, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if need < 6 {
		t.Fatalf("planned n = %d; test misconfigured (want a noisy enough pilot)", need)
	}
	t.Logf("§4.2.2 planned n = %d for ±5%% at 95%% (pilot CoV %.0f%%)", need, 100*sd/mean)

	base := reportFrom(testEnv, map[string][]float64{
		"BenchmarkShift": draw(rng, need, mean, sd),
	})
	cand := reportFrom(testEnv, map[string][]float64{
		"BenchmarkShift": draw(rng, need, 1.2*mean, sd), // +20% median
	})
	g, err := Compare(base, cand, Options{Threshold: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	c := g.Comparisons[0]
	if c.Verdict != VerdictRegressed {
		t.Fatalf("verdict = %s (%s), want REGRESSED", c.Verdict, c.Reason)
	}
	if !(c.Ratio.Lo > 1) {
		t.Errorf("ratio interval %v, want lo > 1", *c.Ratio)
	}
	if c.Delta < 0.10 {
		t.Errorf("measured delta = %+.1f%%, want near +20%%", 100*c.Delta)
	}
}

func TestDetectsImprovement(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	base := reportFrom(testEnv, map[string][]float64{
		"BenchmarkFast": draw(rng, 40, 1000, 50),
	})
	cand := reportFrom(testEnv, map[string][]float64{
		"BenchmarkFast": draw(rng, 40, 800, 50), // −20%
	})
	g, err := Compare(base, cand, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v := g.Comparisons[0].Verdict; v != VerdictImproved {
		t.Fatalf("verdict = %s, want IMPROVED (%s)", v, g.Comparisons[0].Reason)
	}
	if g.Regressed() {
		t.Error("Regressed() = true on an improvement")
	}
}

// A baseline recorded with one run per benchmark (`benchjson -count 1`):
// the gate must refuse to claim anything (INCONCLUSIVE), not silently
// PASS.
func TestSingleRunBaselineInconclusive(t *testing.T) {
	env := map[string]string{"goos": "linux", "goarch": "amd64", "cpu": "Test CPU"}
	base := reportFrom(env, map[string][]float64{"BenchmarkFoo": {1234}, "BenchmarkBar": {99.5}})
	rng := rand.New(rand.NewPCG(3, 3))
	cand := reportFrom(env,
		map[string][]float64{"BenchmarkFoo": draw(rng, 10, 1234, 10), "BenchmarkBar": draw(rng, 10, 99.5, 1)})
	g, err := Compare(base, cand, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range g.Comparisons {
		if c.Verdict != VerdictInconclusive {
			t.Errorf("%s: verdict = %s, want INCONCLUSIVE for n=1 baseline", c.Name, c.Verdict)
		}
	}
	if g.Regressed() {
		t.Error("Regressed() on inconclusive-only report")
	}
}

// An underpowered non-rejection must not read as PASS: high noise and
// tiny n give a ratio interval too wide to resolve the threshold, so
// the verdict is INCONCLUSIVE.
func TestUnderpoweredInconclusive(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 11))
	base := reportFrom(testEnv, map[string][]float64{
		"BenchmarkNoisy": draw(rng, 6, 1000, 300), // 30% CoV, n=6
	})
	cand := reportFrom(testEnv, map[string][]float64{
		"BenchmarkNoisy": draw(rng, 6, 1000, 300),
	})
	g, err := Compare(base, cand, Options{Threshold: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	c := g.Comparisons[0]
	if c.Verdict == VerdictPass {
		t.Fatalf("verdict = PASS at n=6 with 30%% CoV (reason: %s)", c.Reason)
	}
	if c.Verdict == VerdictInconclusive && !strings.Contains(c.Reason, "straddles") && !strings.Contains(c.Reason, "too few") {
		t.Errorf("inconclusive but the interval does not straddle the threshold: %s", c.Reason)
	}
}

// A statistically significant but sub-threshold wobble is PASS: the
// effect-size gate keeps noise-level shifts from failing builds.
func TestNoiseWobblePasses(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 13))
	base := reportFrom(testEnv, map[string][]float64{
		"BenchmarkTight": draw(rng, 200, 1000, 5),
	})
	cand := reportFrom(testEnv, map[string][]float64{
		"BenchmarkTight": draw(rng, 200, 1010, 5), // +1%: real but tiny
	})
	g, err := Compare(base, cand, Options{Threshold: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	c := g.Comparisons[0]
	if c.Ratio == nil || !(c.Ratio.Lo > 1) {
		t.Fatalf("test misconfigured: shift not resolved (%s)", c.Reason)
	}
	if c.Verdict != VerdictPass {
		t.Fatalf("verdict = %s, want PASS for significant-but-small shift (%s)", c.Verdict, c.Reason)
	}
}

func TestMissingAndAddedBenchmarks(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 17))
	xs := draw(rng, 10, 100, 2)
	base := reportFrom(testEnv, map[string][]float64{"BenchmarkOld": xs, "BenchmarkBoth": xs})
	cand := reportFrom(testEnv, map[string][]float64{"BenchmarkNew": xs, "BenchmarkBoth": xs})
	g, err := Compare(base, cand, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Comparisons) != 1 || g.Comparisons[0].Name != "BenchmarkBoth" {
		t.Errorf("comparisons = %+v, want just BenchmarkBoth", g.Comparisons)
	}
	if len(g.MissingInCandidate) != 1 || !strings.Contains(g.MissingInCandidate[0], "BenchmarkOld") {
		t.Errorf("MissingInCandidate = %v", g.MissingInCandidate)
	}
	if len(g.MissingInBaseline) != 1 || !strings.Contains(g.MissingInBaseline[0], "BenchmarkNew") {
		t.Errorf("MissingInBaseline = %v", g.MissingInBaseline)
	}
}

func TestEnvMismatchNoted(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 19))
	xs := draw(rng, 10, 100, 2)
	base := reportFrom(map[string]string{"cpu": "Xeon"}, map[string][]float64{"BenchmarkX": xs})
	cand := reportFrom(map[string]string{"cpu": "EPYC"}, map[string][]float64{"BenchmarkX": xs})
	g, err := Compare(base, cand, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !g.EnvMismatch || !strings.Contains(g.EnvNote, "Rule 9") {
		t.Errorf("EnvMismatch = %v, note = %q", g.EnvMismatch, g.EnvNote)
	}
}

// TestOutlierPolicyReported: the gate removes no run as an outlier, so
// the medians, Δ and n it prints read the same runs as the ratio
// interval behind the verdict. The first column is
// BenchmarkSampleReset's committed 5 runs, two of which sit outside
// Tukey's k=1.5 fences; the second has one wild run that moves the
// median if it is dropped.
func TestOutlierPolicyReported(t *testing.T) {
	for _, xs := range [][]float64{
		{1093429, 1095869, 1076921, 992766, 1141298},
		{100, 101, 102, 103, 200},
	} {
		rep := reportFrom(testEnv, map[string][]float64{"BenchmarkOut": xs})
		g, err := Compare(rep, rep, Options{})
		if err != nil {
			t.Fatal(err)
		}
		c := g.Comparisons[0]
		if c.BaselineN != len(xs) || c.CandidateN != len(xs) {
			t.Errorf("%v: n = %d/%d, want %d/%d", xs, c.BaselineN, c.CandidateN, len(xs), len(xs))
		}
		if want := stats.Median(xs); c.BaselineMedian != want || c.CandidateMedian != want {
			t.Errorf("%v: medians %g/%g, want %g over all runs", xs, c.BaselineMedian, c.CandidateMedian, want)
		}
		if c.Ratio == nil {
			t.Errorf("%v: no ratio interval (%s)", xs, c.Reason)
		}
		var txt bytes.Buffer
		if err := g.WriteText(&txt); err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("n=%d/%d", len(xs), len(xs)); !strings.Contains(txt.String(), want) {
			t.Errorf("%v: text output lacks %q:\n%s", xs, want, txt.String())
		}
	}
}

// TestSharedRunnerFalseRegressedCarriesCaveats pins the scenario the
// EXPERIMENTS.md benchgate entry narrates: on a shared CI runner, two
// back-to-back collections of UNCHANGED code measured +13% with p=0.02
// — a statistically sound verdict on a lying environment (Rule 9).
// The gate cannot un-measure that, but the verdict table must
// carry the evidence against itself: the REGRESSED row's caveat cell
// names the environment drift, so no reader — human or bot — trusts
// the ❌ bare.
func TestSharedRunnerFalseRegressedCarriesCaveats(t *testing.T) {
	// Baseline: a quiet collection. Candidate: same code minutes later
	// under a noisy neighbour — ~13% slower, internally tight, plus one
	// wild descheduling outlier.
	base := reportFrom(
		map[string]string{"cpu": "shared-runner", "load": "idle"},
		map[string][]float64{"BenchmarkSuiteRun": {1.60e6, 1.61e6, 1.62e6, 1.63e6, 1.64e6}})
	cand := reportFrom(
		map[string]string{"cpu": "shared-runner", "load": "noisy-neighbor"},
		map[string][]float64{"BenchmarkSuiteRun": {1.82e6, 1.83e6, 1.84e6, 1.85e6, 1.86e6, 9.5e6}})
	g, err := Compare(base, cand, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := g.Comparisons[0]
	if c.Verdict != VerdictRegressed {
		t.Fatalf("fixture must reproduce the false REGRESSED: got %s (%s)", c.Verdict, c.Reason)
	}
	if !g.EnvMismatch {
		t.Fatal("environment fingerprints must differ in this fixture")
	}
	cv := c.Caveats(g.EnvMismatch)
	if len(cv) == 0 {
		t.Fatal("the false-REGRESSED row carries no caveats")
	}
	var md bytes.Buffer
	if err := g.WriteMarkdown(&md); err != nil {
		t.Fatal(err)
	}
	out := md.String()
	if !strings.Contains(out, "| caveats |") {
		t.Error("markdown table has no caveat column")
	}
	row := ""
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "| BenchmarkSuiteRun") {
			row = line
		}
	}
	for _, want := range []string{"REGRESSED", "env drift"} {
		if !strings.Contains(row, want) {
			t.Errorf("verdict row missing %q: %s", want, row)
		}
	}
	// The terminal rendering, benchgate's default, names the same
	// caveats under the row.
	var txt bytes.Buffer
	if err := g.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "caveats: env drift\n") {
		t.Errorf("text output missing the row's caveats:\n%s", txt.String())
	}
	// A clean row on a clean run stays unannotated: the caveat cell is a
	// statement either way.
	same := reportFrom(testEnv, map[string][]float64{"BenchmarkClean": {100, 101, 99, 100, 102, 101}})
	g2, err := Compare(same, same, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var md2 bytes.Buffer
	if err := g2.WriteMarkdown(&md2); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(md2.String(), "\n") {
		if strings.Contains(line, "BenchmarkClean") && !strings.Contains(line, "| — |") {
			t.Errorf("clean row's caveat cell not —: %s", line)
		}
	}
	var txt2 bytes.Buffer
	if err := g2.WriteText(&txt2); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(txt2.String(), "caveats:") {
		t.Errorf("clean text output carries a caveat line:\n%s", txt2.String())
	}
}

// TestEnvDriftCaveatOnlyOnActionableRows: with an environment mismatch,
// only a REGRESSED or IMPROVED row names the drift as its caveat; PASS
// and INCONCLUSIVE rows ask nothing of the reader, and the report-level
// warning, printed once in each rendering, covers them.
func TestEnvDriftCaveatOnlyOnActionableRows(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 101}
	base := reportFrom(map[string]string{"cpu": "a"}, map[string][]float64{
		"BenchmarkPass": steady, "BenchmarkFew": {100, 101, 102}, "BenchmarkSlow": steady})
	cand := reportFrom(map[string]string{"cpu": "b"}, map[string][]float64{
		"BenchmarkPass": steady, "BenchmarkFew": {100, 101, 102}, "BenchmarkSlow": {200, 202, 198, 200, 204, 202}})
	g, err := Compare(base, cand, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !g.EnvMismatch {
		t.Fatal("environment fingerprints must differ in this fixture")
	}
	want := map[string]Verdict{
		"BenchmarkPass": VerdictPass, "BenchmarkFew": VerdictInconclusive, "BenchmarkSlow": VerdictRegressed}
	for _, c := range g.Comparisons {
		if c.Verdict != want[c.Name] {
			t.Fatalf("%s: verdict %s, want %s (%s)", c.Name, c.Verdict, want[c.Name], c.Reason)
		}
		cv := c.Caveats(g.EnvMismatch)
		if actionable := c.Verdict == VerdictRegressed; actionable != (len(cv) == 1 && cv[0] == "env drift") {
			t.Errorf("%s %s: caveats %q", c.Name, c.Verdict, cv)
		}
	}
	var md, txt bytes.Buffer
	if err := g.WriteMarkdown(&md); err != nil {
		t.Fatal(err)
	}
	if err := g.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	for name, out := range map[string]string{"markdown": md.String(), "text": txt.String()} {
		if n := strings.Count(out, g.EnvNote); n != 1 {
			t.Errorf("%s prints the env warning %d times, want once:\n%s", name, n, out)
		}
		if n := strings.Count(out, "env drift"); n != 1 {
			t.Errorf("%s names env drift %d times, want once (the REGRESSED row):\n%s", name, n, out)
		}
	}
	for _, line := range strings.Split(md.String(), "\n") {
		if (strings.HasPrefix(line, "| BenchmarkPass ") || strings.HasPrefix(line, "| BenchmarkFew ")) &&
			!strings.HasSuffix(line, "| — |") {
			t.Errorf("non-actionable row carries a caveat: %s", line)
		}
	}
}

func TestSecondaryDeltas(t *testing.T) {
	mk := func(ns, bop float64) *Report {
		return &Report{
			Schema: SchemaVersion, Env: testEnv,
			Results: []Result{{
				Name: "BenchmarkM", Iterations: []int64{1, 1},
				Samples: map[string][]float64{
					"ns/op": {ns, ns}, "B/op": {bop, bop},
				},
			}},
		}
	}
	g, err := Compare(mk(100, 64), mk(100, 128), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sec := g.Comparisons[0].Secondary
	if len(sec) != 1 || sec[0].Unit != "B/op" {
		t.Fatalf("secondary = %+v", sec)
	}
	if sec[0].Delta != 1.0 {
		t.Errorf("B/op delta = %g, want 1.0 (doubled)", sec[0].Delta)
	}
}

func TestRenderers(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 23))
	base := reportFrom(testEnv, map[string][]float64{
		"BenchmarkA": draw(rng, 20, 1000, 20),
		"BenchmarkB": draw(rng, 20, 500, 10),
	})
	cand := reportFrom(testEnv, map[string][]float64{
		"BenchmarkA": draw(rng, 20, 1300, 20), // regression
		"BenchmarkB": draw(rng, 20, 500, 10),
	})
	g, err := Compare(base, cand, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !g.Regressed() {
		t.Fatal("expected a regression in the fixture")
	}
	var md bytes.Buffer
	if err := g.WriteMarkdown(&md); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"| benchmark |", "BenchmarkA", "REGRESSED", "1 PASS", "candidate/baseline ratio"} {
		if !strings.Contains(md.String(), want) {
			t.Errorf("markdown missing %q:\n%s", want, md.String())
		}
	}
	var txt bytes.Buffer
	if err := g.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "REGRESSED") {
		t.Errorf("text output missing verdict:\n%s", txt.String())
	}
	var js bytes.Buffer
	if err := g.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var round GateReport
	if err := json.Unmarshal(js.Bytes(), &round); err != nil {
		t.Fatal(err)
	}
	if len(round.Comparisons) != 2 || !round.Regressed() {
		t.Errorf("JSON round-trip lost verdicts: %+v", round.Comparisons)
	}
}

func TestCompareRejectsInvalidReports(t *testing.T) {
	bad := &Report{Schema: SchemaVersion, Results: nil}
	good := reportFrom(testEnv, map[string][]float64{"BenchmarkX": {1, 2, 3}})
	if _, err := Compare(bad, good, Options{}); err == nil {
		t.Error("Compare accepted an empty baseline")
	}
	if _, err := Compare(good, bad, Options{}); err == nil {
		t.Error("Compare accepted an empty candidate")
	}
}

func TestVerdictDeterminism(t *testing.T) {
	rng := rand.New(rand.NewPCG(29, 29))
	benches := map[string][]float64{}
	for _, n := range []string{"BenchmarkZ", "BenchmarkA", "BenchmarkM"} {
		benches[n] = draw(rng, 12, 100, 3)
	}
	base := reportFrom(testEnv, benches)
	cand := reportFrom(testEnv, benches)
	var first string
	for i := 0; i < 5; i++ {
		g, err := Compare(base, cand, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := g.WriteMarkdown(&buf); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = buf.String()
		} else if buf.String() != first {
			t.Fatal("gate output varies across identical runs")
		}
	}
	if !strings.Contains(first, "BenchmarkA") {
		t.Error("missing benchmark row")
	}
	// Identical data: delta is exactly 0 and the ratio exactly 1 for
	// every row.
	g, _ := Compare(base, cand, Options{})
	for _, c := range g.Comparisons {
		if c.Delta != 0 || c.Ratio == nil || c.Ratio.Center != 1 || !c.Ratio.Contains(1) {
			t.Errorf("%s: identical data gave delta=%g ratio=%v", c.Name, c.Delta, c.Ratio)
		}
	}
}
