package regress

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/ci"
)

// WriteJSON writes the gate report as indented JSON.
func (g *GateReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(g)
}

// WriteMarkdown renders the per-benchmark verdict table as GitHub-
// flavored markdown — the artifact the CI job publishes as its job
// summary. Every row carries its evidence: medians with their
// nonparametric CIs, the relative shift, the ratio interval the
// verdict is read from, and the sample accounting (Rule 5: never a
// bare mean).
func (g *GateReport) WriteMarkdown(w io.Writer) error {
	bw := &errWriter{w: w}
	counts := g.Counts()
	fmt.Fprintf(bw, "### benchgate — %d benchmark(s): %d PASS, %d REGRESSED, %d IMPROVED, %d INCONCLUSIVE\n\n",
		len(g.Comparisons), counts[VerdictPass], counts[VerdictRegressed],
		counts[VerdictImproved], counts[VerdictInconclusive])
	t := g.Options.Threshold
	fmt.Fprintf(bw, "Gate: %.0f%% interval [lo, hi] on the candidate/baseline ratio over all runs — REGRESSED if lo > %.4g, IMPROVED if hi < %.4g, PASS if inside [%.4g, %.4g], else INCONCLUSIVE (medians and n after Tukey k=%.1f on %s).\n\n",
		100*g.Options.Confidence, 1+t, 1-t, 1-t, 1+t, g.Options.TukeyK, g.Options.Unit)
	if g.EnvMismatch {
		fmt.Fprintf(bw, "> ⚠️ %s\n\n", g.EnvNote)
	}
	fmt.Fprintln(bw, "| benchmark | baseline median | candidate median | Δ | ratio [CI] | n | verdict | caveats |")
	fmt.Fprintln(bw, "|---|---|---|---|---|---|---|---|")
	for _, c := range g.Comparisons {
		fmt.Fprintf(bw, "| %s | %s | %s | %+.1f%% | %s | %d/%d | %s %s | %s |\n",
			c.Name,
			medianCell(c.BaselineMedian, c.BaselineCI, c.Unit),
			medianCell(c.CandidateMedian, c.CandidateCI, c.Unit),
			100*c.Delta, ratioCell(c.Ratio), c.BaselineN, c.CandidateN,
			verdictEmoji(c.Verdict), c.Verdict, caveatCell(c.Caveats(g.EnvMismatch)))
	}
	fmt.Fprintln(bw)
	for _, c := range g.Comparisons {
		if c.Verdict != VerdictPass {
			fmt.Fprintf(bw, "- **%s** %s: %s\n", c.Name, c.Verdict, c.Reason)
		}
	}
	writeMissing(bw, "only in baseline (removed?)", g.MissingInCandidate)
	writeMissing(bw, "only in candidate (new)", g.MissingInBaseline)
	return bw.err
}

// WriteText renders a plain-terminal version of the verdict table; a
// row with caveats gets a line naming them, as its markdown cell does.
func (g *GateReport) WriteText(w io.Writer) error {
	bw := &errWriter{w: w}
	counts := g.Counts()
	fmt.Fprintf(bw, "benchgate: %d benchmark(s): %d PASS, %d REGRESSED, %d IMPROVED, %d INCONCLUSIVE\n",
		len(g.Comparisons), counts[VerdictPass], counts[VerdictRegressed],
		counts[VerdictImproved], counts[VerdictInconclusive])
	t := g.Options.Threshold
	fmt.Fprintf(bw, "gate: %.0f%% ratio interval [lo, hi]: REGRESSED if lo > %.4g, IMPROVED if hi < %.4g, PASS inside [%.4g, %.4g] (unit %s)\n",
		100*g.Options.Confidence, 1+t, 1-t, 1-t, 1+t, g.Options.Unit)
	if g.EnvMismatch {
		fmt.Fprintf(bw, "warning: %s\n", g.EnvNote)
	}
	for _, c := range g.Comparisons {
		fmt.Fprintf(bw, "  %-14s %-40s %12.6g -> %-12.6g %+7.1f%%  ratio %-24s n=%d/%d\n",
			c.Verdict, c.Name, c.BaselineMedian, c.CandidateMedian,
			100*c.Delta, ratioCell(c.Ratio), c.BaselineN, c.CandidateN)
		if c.Verdict != VerdictPass {
			fmt.Fprintf(bw, "  %-14s   %s\n", "", c.Reason)
		}
		if cv := c.Caveats(g.EnvMismatch); len(cv) > 0 {
			fmt.Fprintf(bw, "  %-14s   caveats: %s\n", "", strings.Join(cv, "; "))
		}
	}
	if len(g.MissingInCandidate) > 0 {
		fmt.Fprintf(bw, "only in baseline: %s\n", strings.Join(g.MissingInCandidate, ", "))
	}
	if len(g.MissingInBaseline) > 0 {
		fmt.Fprintf(bw, "only in candidate: %s\n", strings.Join(g.MissingInBaseline, ", "))
	}
	return bw.err
}

func writeMissing(w io.Writer, label string, keys []string) {
	if len(keys) == 0 {
		return
	}
	fmt.Fprintf(w, "\n%s: %s\n", label, strings.Join(keys, ", "))
}

func medianCell(med float64, iv *ci.Interval, unit string) string {
	if iv == nil {
		return fmt.Sprintf("%.4g %s", med, unit)
	}
	return fmt.Sprintf("%.4g [%.4g, %.4g] %s", med, iv.Lo, iv.Hi, unit)
}

// caveatCell renders a row's Rule 9 caveat list; a clean row shows "—"
// so absence of caveats is a statement, not an empty cell.
func caveatCell(cv []string) string {
	if len(cv) == 0 {
		return "—"
	}
	return strings.Join(cv, "; ")
}

func ratioCell(iv *ci.Interval) string {
	if iv == nil {
		return "—"
	}
	return fmt.Sprintf("%.4g [%.4g, %.4g]", iv.Center, iv.Lo, iv.Hi)
}

func verdictEmoji(v Verdict) string {
	switch v {
	case VerdictPass:
		return "✅"
	case VerdictRegressed:
		return "❌"
	case VerdictImproved:
		return "🚀"
	default:
		return "❔"
	}
}

// errWriter folds repeated Fprintf error checks into one sticky error.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return len(p), nil
	}
	_, err := e.w.Write(p)
	e.err = err
	return len(p), nil
}
