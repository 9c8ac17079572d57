// Command benchgate is the statistical performance-regression gate:
// it compares a candidate `BENCH_*.json` (written by benchjson) against
// a committed baseline using the paper's own machinery — nonparametric
// median CIs (Le Boudec) and one distribution-free interval on the
// candidate/baseline ratio (Mann–Whitney inverted on log costs), both
// over every run — and exits nonzero when any benchmark REGRESSED. The
// verdict is where that interval sits against the threshold t:
// REGRESSED above 1+t, IMPROVED below 1−t, PASS inside [1−t, 1+t], and
// INCONCLUSIVE when it straddles either end or cannot be formed.
// Rules 5–8 applied to the repo's own perf trajectory: no verdict from
// a bare mean, no PASS from an interval too wide to resolve t, no build
// failed by noise-level wobble.
//
// Usage:
//
//	benchgate -baseline BENCH_harness.json -candidate new.json [-threshold 5%] [-json|-markdown]
//
// Exit status: 0 when no benchmark regressed (or -advisory is set),
// 1 when at least one REGRESSED, 2 on usage or input errors.
//
//	-advisory         report verdicts but always exit 0 — for shared CI
//	                  runners whose noise can't support a hard claim (Rule 9)
//	-update-baseline  refresh the baseline file from the candidate
//	                  (with provenance) instead of gating
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/regress"
)

func main() {
	var (
		baselinePath  = flag.String("baseline", "BENCH_harness.json", "committed baseline `file`")
		candidatePath = flag.String("candidate", "", "candidate `file` to gate (required)")
		threshold     = flag.String("threshold", "5%", "smallest candidate/baseline ratio shift treated as real (e.g. 5% or 0.05)")
		confidence    = flag.Float64("confidence", 0.95, "ratio and median CI confidence level")
		unit          = flag.String("unit", "ns/op", "gated metric unit")
		asJSON        = flag.Bool("json", false, "emit the gate report as JSON")
		asMarkdown    = flag.Bool("markdown", false, "emit the verdict table as markdown")
		advisory      = flag.Bool("advisory", false, "never fail the exit code (noisy shared runners, Rule 9)")
		update        = flag.Bool("update-baseline", false, "refresh the baseline from the candidate (with provenance) and exit")
	)
	flag.Parse()
	code, err := run(*baselinePath, *candidatePath, *threshold, *confidence,
		*unit, *asJSON, *asMarkdown, *advisory, *update)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run(baselinePath, candidatePath, thresholdStr string, confidence float64,
	unit string, asJSON, asMarkdown, advisory, update bool) (int, error) {
	if candidatePath == "" {
		return 0, fmt.Errorf("-candidate is required")
	}
	threshold, err := parseThreshold(thresholdStr)
	if err != nil {
		return 0, err
	}
	candidate, err := regress.LoadReport(candidatePath)
	if err != nil {
		return 0, err
	}

	if update {
		return 0, updateBaseline(baselinePath, candidate)
	}

	baseline, err := regress.LoadReport(baselinePath)
	if err != nil {
		return 0, err
	}
	gate, err := regress.Compare(baseline, candidate, regress.Options{
		Threshold:  threshold,
		Confidence: confidence,
		Unit:       unit,
	})
	if err != nil {
		return 0, err
	}

	switch {
	case asJSON:
		err = gate.WriteJSON(os.Stdout)
	case asMarkdown:
		err = gate.WriteMarkdown(os.Stdout)
	default:
		err = gate.WriteText(os.Stdout)
	}
	if err != nil {
		return 0, err
	}

	if gate.Regressed() {
		if advisory {
			fmt.Fprintln(os.Stderr, "benchgate: regression detected, but -advisory is set: exiting 0 (Rule 9: shared-runner noise cannot support a hard claim)")
			return 0, nil
		}
		return 1, nil
	}
	return 0, nil
}

// parseThreshold accepts "5%" or a bare fraction like "0.05".
func parseThreshold(s string) (float64, error) {
	s = strings.TrimSpace(s)
	pct := strings.HasSuffix(s, "%")
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		return 0, fmt.Errorf("bad -threshold %q: %v", s, err)
	}
	if pct {
		v /= 100
	}
	if v <= 0 || v >= 1 {
		return 0, fmt.Errorf("-threshold %q must be in (0%%, 100%%)", s)
	}
	return v, nil
}

// updateBaseline writes the candidate over the baseline path with
// fresh provenance (commit, date, env fingerprint) so the committed
// reference documents its own origin (Rule 9).
func updateBaseline(baselinePath string, candidate *regress.Report) error {
	candidate.Provenance = &regress.Provenance{
		Commit:         gitCommit(),
		Date:           time.Now().UTC().Format(time.RFC3339),
		EnvFingerprint: regress.EnvFingerprint(candidate.Env),
		Tool:           "benchgate -update-baseline",
	}
	dir := filepath.Dir(baselinePath)
	tmp, err := os.CreateTemp(dir, filepath.Base(baselinePath)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := candidate.WriteJSON(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), baselinePath); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchgate: baseline %s updated (%d benchmarks, commit %s)\n",
		baselinePath, len(candidate.Results), candidate.Provenance.Commit)
	return nil
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
