// Command scibench is the library's command-line front end:
//
//	scibench analyze -col NAME [-confidence 0.95] < data.csv
//	    Full statistical analysis (summary, CIs, normality, density) of
//	    one CSV column of measurements.
//
//	scibench compare -a NAME -b NAME [-alpha 0.05] < data.csv
//	    Rule 7 comparison of two CSV columns: Kruskal–Wallis, Welch
//	    t-test, effect size, CI overlap, and quantile differences.
//
//	scibench timer
//	    Calibrate the wall clock and print the smallest reliably
//	    measurable interval (§4.2.1).
//
//	scibench audit < report.json
//	    Audit a study description (JSON rules.Report) against the twelve
//	    rules and print the findings and scorecard.
//
//	scibench generate [-n 1000] [-seed 1] [-faults straggler,burst]
//	    Emit a demo CSV (two simulated systems' latencies) to stdout for
//	    the analyze/compare subcommands; -faults injects a named fault
//	    preset into the first system.
//
//	scibench changepoint -col NAME [-alpha 0.01] < data.csv
//	    Run Pettitt's nonparametric change-point test over the ordered
//	    column — the contamination check for mid-campaign regime shifts.
//
//	scibench campaign -dir DIR [-system daint] [-samples 200] [-relerr 0.02]
//	          [-seed 1] [-faults ...] [-throttle 0] [-budget 0]
//	    Run a durable, journaled measurement campaign: observations are
//	    checksummed and fsynced in chunks of 64, and a clean stop seals
//	    the rest. Ctrl-C, SIGTERM, or an elapsed -budget checkpoints
//	    cleanly (exit 3) and the campaign resumes later — bit-for-bit,
//	    the setup being pinned in the campaign manifest (Rule 9).
//
//	scibench resume [flags] DIR
//	    Continue an interrupted campaign exactly where it stopped: verify
//	    the journal (dropping a torn tail from a crash mid-append),
//	    refuse on any configuration drift with Rule 9 findings, check the
//	    suspend/resume boundary for environment drift (Rule 6), and run
//	    to completion. Flags override the recorded setup — which refuses
//	    the resume unless they match. A journal that is not v2, the only
//	    encoding this build reads, is refused and left untouched.
//
//	scibench dump PATH
//	    Print a campaign journal (PATH is the campaign directory or its
//	    journal.jsonl) or a -telemetry trace.bin as JSON lines, one
//	    record or span per line — the human-readable view of the binary
//	    files.
//
//	scibench campaign -dir DIR -shards N [-units K] [campaign flags]
//	    Distributed mode: partition a K-unit sweep (unit i = the campaign
//	    at seed+i) into N shards and run them on N loopback worker agents
//	    inside this process, behind the same coordinator as -remote:
//	    journals ship CRC-framed into DIR, every shard records its host,
//	    and SIGINT/SIGTERM stop the executors with the campaign. Crashed
//	    executors, and stalled ones (no measure call completed within
//	    -heartbeat-timeout), are fenced and reassigned and resume their
//	    shard from its journals; exhausted retries degrade the merged
//	    report with explicit losses (exit 4).
//	    Rerunning the command over DIR resumes the sweep. The merged
//	    report is byte-identical to a single-process run.
//
//	scibench shard -dir DIR -shards N -units K [campaign flags]
//	    Only build the sweep: write sweep.json and the per-shard
//	    manifests, to be executed by N separate `scibench exec` runs.
//
//	scibench exec [-attempt N] SHARD_DIR
//	    Run one shard as an executor: a journaled campaign per unit,
//	    completed units skipped, interrupted units resumed from their
//	    journal bit-for-bit.
//
//	scibench campaign -dir DIR -shards N -remote ADDR [-min-workers M]
//	    Cross-machine mode: serve a coordinator on ADDR, wait for M
//	    `scibench worker` agents to register, and run the shards on them.
//	    Shard manifests are hash-pinned over the wire; journal chunks
//	    ship back CRC-framed with resumable offsets, so a reconnecting
//	    worker re-ships only the missing suffix. Mirrored observations
//	    are kept: a resume replays measure once per journaled call and
//	    checks the bits, redoing the work but never replacing a value.
//	    Workers that crash, stall, or partition are fenced (late chunks
//	    refused) and their shards reassigned to other workers; each
//	    worker's Rule 9 host environment is fingerprinted and the merge
//	    stratifies cross-host seams. The merged report is byte-identical
//	    to a single-process run.
//
//	scibench worker -coordinator URL [-listen ADDR] [-work DIR]
//	    Run a worker agent: register with a coordinator, execute
//	    assigned shards locally (journaled, resumable), ship journals
//	    back. -fault-drop/-fault-delay/-fault-dup inject seeded
//	    transport faults for partition-tolerance rehearsal.
//
//	scibench merge -dir DIR [-ops]
//	    Verify and merge every shard's journals into one canonical
//	    report (refusing manifest drift, checking each merge seam for
//	    regime shifts) and record merged.json; -ops appends the
//	    operational annex (attempts, env fingerprints, seam p-values).
//
//	scibench serve [-preset poisson|diurnal2|burst] [-loads 0.1,...]
//	          [-epoch 5s] [-epochs 6] [-seed 1] [-j 0] [-stall 0] [-dir DIR]
//	    Sweep a seeded open-loop service workload through an
//	    offered-load ramp: Poisson / two-period diurnal /
//	    bursty ON-OFF arrivals into simulated batching servers, every
//	    request latency recorded in a mergeable log-bucketed histogram,
//	    p50/p99/p999 reported with rank-based nonparametric CIs and the
//	    detected latency knee. -j runs that many load points at once
//	    (0 = GOMAXPROCS); -dir records merged.json, bit-identical for
//	    every -j (Rule 9); -stall injects a mid-epoch dispatch stall
//	    and reports the coordinated-omission ratio (open- vs closed-loop
//	    p99 on the identical schedule).
//
//	scibench rules
//	    Print the twelve rules verbatim.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	scibench "repro"
	"repro/internal/report"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "analyze":
		err = cmdAnalyze(os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:])
	case "timer":
		err = cmdTimer()
	case "rules":
		err = cmdRules()
	case "audit":
		err = cmdAudit()
	case "generate":
		err = cmdGenerate(os.Args[2:])
	case "changepoint":
		err = cmdChangePoint(os.Args[2:])
	case "campaign":
		err = cmdCampaign(os.Args[2:])
	case "resume":
		err = cmdResume(os.Args[2:])
	case "dump":
		err = cmdDump(os.Args[2:])
	case "shard":
		err = cmdShard(os.Args[2:])
	case "exec":
		err = cmdExec(os.Args[2:])
	case "merge":
		err = cmdMerge(os.Args[2:])
	case "worker":
		err = cmdWorker(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	default:
		usage()
	}
	if errors.Is(err, errShardsLost) {
		os.Exit(4)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "scibench: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: scibench analyze|compare|audit|generate|changepoint|campaign|resume|dump|shard|exec|merge|worker|serve|timer|rules [flags]")
	os.Exit(2)
}

func cmdAudit() error {
	var r scibench.RulesReport
	dec := json.NewDecoder(os.Stdin)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return fmt.Errorf("parsing rules report: %w", err)
	}
	findings, _ := scibench.AuditRules(r)
	return scibench.WriteRulesReport(os.Stdout, findings)
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	n := fs.Int("n", 1000, "samples per system")
	seed := fs.Uint64("seed", 1, "RNG seed")
	faultsFlag := fs.String("faults", "", "fault preset(s) injected into the first system: "+
		strings.Join(scibench.FaultPresetNames(), "|"))
	if err := fs.Parse(args); err != nil {
		return err
	}
	sched, err := scibench.FaultPreset(*faultsFlag)
	if err != nil {
		return fmt.Errorf("-faults: %w", err)
	}
	gen := func(cfg scibench.ClusterConfig, seed uint64) ([]float64, error) {
		ranks := cfg.CoresPerNode + 1
		m, err := scibench.NewCluster(cfg, ranks, seed)
		if err != nil {
			return nil, err
		}
		raw := m.PingPong(0, ranks-1, 64, *n)
		out := make([]float64, len(raw))
		for i, d := range raw {
			out[i] = float64(d) / float64(time.Microsecond)
		}
		return out, nil
	}
	doraCfg := scibench.PizDora()
	doraCfg.Faults = sched
	if sched != nil {
		fmt.Fprintf(os.Stderr, "scibench: injecting into dora_us: %s\n", sched)
	}
	dora, err := gen(doraCfg, *seed)
	if err != nil {
		return err
	}
	pilatus, err := gen(scibench.Pilatus(), *seed+1)
	if err != nil {
		return err
	}
	return scibench.WriteCSV(os.Stdout, []string{"dora_us", "pilatus_us"}, dora, pilatus)
}

func cmdChangePoint(args []string) error {
	fs := flag.NewFlagSet("changepoint", flag.ExitOnError)
	col := fs.String("col", "", "CSV column to test (required)")
	alpha := fs.Float64("alpha", 0.01, "significance level")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *col == "" {
		return fmt.Errorf("-col is required")
	}
	cols, err := readColumns(os.Stdin, *col)
	if err != nil {
		return err
	}
	xs := cols[*col]
	cp, err := scibench.DetectChangePoint(xs)
	if err != nil {
		return err
	}
	fmt.Printf("Pettitt change-point test over %d ordered observations\n", len(xs))
	fmt.Printf("K = %.0f, p ≈ %.3g\n", cp.K, cp.P)
	if cp.Significant(*alpha) {
		fmt.Printf("REGIME SHIFT at index %d (significant at %.0f%%):\n", cp.Index, 100**alpha)
		fmt.Printf("  median before: %.6g\n  median after:  %.6g\n", cp.MedianBefore, cp.MedianAfter)
		fmt.Println("the sample mixes two regimes; do not summarize it as one distribution")
	} else {
		fmt.Printf("no significant change point at %.0f%%; the stream looks stationary\n", 100**alpha)
	}
	return nil
}

func readColumns(r io.Reader, names ...string) (map[string][]float64, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	out := map[string][]float64{}
	for _, name := range names {
		col, err := report.ReadCSVColumn(bytes.NewReader(data), name)
		if err != nil {
			return nil, err
		}
		out[name] = col
	}
	return out, nil
}

func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	col := fs.String("col", "", "CSV column to analyze (required)")
	confidence := fs.Float64("confidence", 0.95, "confidence level")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *col == "" {
		return fmt.Errorf("-col is required")
	}
	cols, err := readColumns(os.Stdin, *col)
	if err != nil {
		return err
	}
	xs := cols[*col]
	res, err := scibench.Analyze(xs, *confidence)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %s\n\n", *col, res.Summary)
	fmt.Printf("mean   %v\n", res.MeanCI)
	fmt.Printf("median %v\n", res.MedianCI)
	fmt.Printf("Shapiro–Wilk W = %.4f, p = %.3g → plausibly normal: %v\n",
		res.ShapiroW, res.ShapiroP, res.PlausiblyNormal)
	if res.ShiftDetected {
		fmt.Printf("WARNING: regime shift detected at index %d (Pettitt p ≈ %.3g) — "+
			"the stream is contaminated; see `scibench changepoint`\n", res.ShiftIndex, res.ShiftP)
	}
	label, iv := res.PreferredCenter()
	fmt.Printf("report the %s: %v\n\n", label, iv)
	if err := scibench.DensityPlot(os.Stdout, xs, 72, 10); err != nil {
		return err
	}
	fmt.Println()
	return scibench.QQPlot(os.Stdout, xs, 60, 14)
}

func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	a := fs.String("a", "", "first CSV column (required)")
	b := fs.String("b", "", "second CSV column (required)")
	alpha := fs.Float64("alpha", 0.05, "significance level")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *a == "" || *b == "" {
		return fmt.Errorf("-a and -b are required")
	}
	cols, err := readColumns(os.Stdin, *a, *b)
	if err != nil {
		return err
	}
	xa, xb := cols[*a], cols[*b]

	kw, err := scibench.KruskalWallis(xa, xb)
	if err != nil {
		return err
	}
	fmt.Printf("Kruskal–Wallis (medians): %s → differ at %.0f%%: %v\n",
		kw, 100*(1-*alpha), kw.Significant(*alpha))
	if tt, err := scibench.TTest(xa, xb, true); err == nil {
		fmt.Printf("Welch t-test (means):     %s\n", tt)
	}
	if es, err := scibench.EffectSize(xa, xb); err == nil {
		fmt.Printf("effect size: %.3f (|0.2| small, |0.5| medium, |0.8| large)\n", es)
	}
	ia, err := scibench.MedianCI(xa, 1-*alpha)
	if err != nil {
		return err
	}
	ib, err := scibench.MedianCI(xb, 1-*alpha)
	if err != nil {
		return err
	}
	fmt.Printf("median %s: %v\nmedian %s: %v\nCIs overlap: %v\n",
		*a, ia, *b, ib, ia.Overlaps(ib))
	if r, err := scibench.RatioCI(xa, xb, 1-*alpha); err == nil {
		fmt.Printf("median ratio %s/%s = %.6g [%.6g, %.6g] (%.0f%% CI)\n",
			*b, *a, r.Center, r.Lo, r.Hi, 100*r.Confidence)
	} else {
		fmt.Printf("median ratio %s/%s: %v\n", *b, *a, err)
	}

	pts, err := scibench.CompareQuantiles(xa, xb, []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99}, 1-*alpha)
	if err != nil {
		return err
	}
	fmt.Printf("\nper-quantile differences (%s − %s):\n", *b, *a)
	for _, p := range pts {
		sig := ""
		if p.SignificantDif {
			sig = "  (significant)"
		}
		fmt.Printf("  q%-5g %+.6g  [%+.6g, %+.6g]%s\n",
			p.Tau, p.Difference, p.DifferenceLo, p.DifferenceHi, sig)
	}
	fmt.Println()
	return scibench.BoxPlot(os.Stdout, map[string][]float64{*a: xa, *b: xb}, 60)
}

func cmdTimer() error {
	cal := scibench.CalibrateTimer(64)
	fmt.Printf("wall clock resolution: %v\n", cal.Resolution)
	fmt.Printf("per-call overhead:     %v\n", cal.Overhead)
	fmt.Printf("smallest reliable interval (§4.2.1: overhead < 5%%, resolution 10x): %v\n",
		cal.MinReliableInterval())
	return nil
}

func cmdRules() error {
	for i := 1; i <= 12; i++ {
		fmt.Printf("Rule %2d: %s\n\n", i, scibench.RuleText(i))
	}
	return nil
}
