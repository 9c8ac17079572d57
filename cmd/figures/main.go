// Command figures regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index and EXPERIMENTS.md for
// paper-vs-measured comparisons).
//
// Usage:
//
//	figures [flags] <experiment> [flags]
//
// where <experiment> is one of: table1, means, fig1, fig2, fig3, fig4,
// fig5, fig6, fig7ab, fig7c, weak, all. Flags may appear before or after
// the experiment name.
//
// Flags:
//
//	-seed N     RNG seed (default 2015)
//	-samples N  per-system sample count for fig2/fig3/fig4/fig7c
//	            (default 1000000, the paper's 10⁶)
//	-runs N     run count for fig1 (default 50) and fig5/fig6 (default 1000);
//	            an explicit -runs overrides -quick's shrinking
//	-n N        HPL matrix dimension for fig1 (default 314000)
//	-quick      shrink all sizes for a fast smoke run: samples drop to 1e5,
//	            the HPL dimension to 32768, and per-figure run defaults to a
//	            tenth (floor 20) unless -runs is set
//	-j N        experiments to run concurrently for 'all' (0 = GOMAXPROCS);
//	            output order and bytes are identical for every N
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/figures"
	"repro/internal/report"
)

func main() {
	var (
		seed    = flag.Uint64("seed", 2015, "RNG seed")
		samples = flag.Int("samples", 1000000, "per-system samples (fig2/3/4/7c)")
		runs    = flag.Int("runs", 0, "runs for fig1 (default 50) / fig5-6 (default 1000); overrides -quick")
		n       = flag.Int("n", 314000, "HPL matrix dimension (fig1)")
		quick   = flag.Bool("quick", false, "shrink sizes for a fast smoke run")
		jobs    = flag.Int("j", 0, "experiments to run concurrently for 'all' (0 = GOMAXPROCS)")
		csvDir  = flag.String("csv", "", "also write each experiment's raw dataset to this directory (Rule 9)")
		svgDir  = flag.String("svg", "", "also write publication-style SVG figures to this directory")
	)
	usage := func() {
		fmt.Fprintln(os.Stderr, "usage: figures [flags] table1|means|fig1|fig2|fig3|fig4|fig5|fig6|fig7ab|fig7c|weak|all")
		os.Exit(2)
	}
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
	}
	name := flag.Arg(0)
	// The flag package stops at the first positional argument; re-parse
	// the remainder so `figures all -quick` works as well as
	// `figures -quick all`.
	if flag.NArg() > 1 {
		if err := flag.CommandLine.Parse(flag.Args()[1:]); err != nil || flag.NArg() != 0 {
			usage()
		}
	}
	if *quick {
		*samples = 100000
		*n = 32768
	}
	runsFor := func(def int) int {
		if *runs > 0 {
			return *runs
		}
		if *quick {
			return max(def/10, 20)
		}
		return def
	}

	// writeCSV releases an experiment's raw data per Rule 9.
	writeCSV := func(name string, cols []string, data ...[]float64) error {
		if *csvDir == "" {
			return nil
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(*csvDir, name+".csv"))
		if err != nil {
			return err
		}
		defer f.Close()
		return report.WriteCSV(f, cols, data...)
	}

	// writeSVG renders a vector figure when -svg is set.
	writeSVG := func(name string, render func(f *os.File) error) error {
		if *svgDir == "" {
			return nil
		}
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(*svgDir, name+".svg"))
		if err != nil {
			return err
		}
		defer f.Close()
		return render(f)
	}

	run := func(name string, w io.Writer) error {
		switch name {
		case "table1":
			_, err := figures.Table1(w, *seed)
			return err
		case "means":
			_, err := figures.MeansExample(w)
			return err
		case "fig1":
			d, err := figures.Fig1(w, runsFor(50), *n, *seed)
			if err != nil {
				return err
			}
			if err := writeSVG("fig1_hpl_density", func(f *os.File) error {
				return report.SVGDensityPlot(f,
					"Distribution of completion times for 50 HPL runs",
					"completion time (s)", d.TimesSec, 640, 360)
			}); err != nil {
				return err
			}
			return writeCSV("fig1_hpl_times", []string{"completion_s"}, d.TimesSec)
		case "fig2":
			_, err := figures.Fig2(w, *samples, *seed)
			return err
		case "fig3":
			d, err := figures.Fig3(w, *samples, *seed)
			if err != nil {
				return err
			}
			return writeCSV("fig3_latencies", []string{"dora_us", "pilatus_us"},
				d.DoraRaw, d.PilatusRaw)
		case "fig4":
			d, err := figures.Fig4(w, *samples, *seed)
			if err != nil {
				return err
			}
			var taus, diffs, lo, hi []float64
			for _, p := range d.Points {
				taus = append(taus, p.Tau)
				diffs = append(diffs, p.Difference)
				lo = append(lo, p.DifferenceLo)
				hi = append(hi, p.DifferenceHi)
			}
			return writeCSV("fig4_quantile_differences",
				[]string{"tau", "difference_us", "lo", "hi"}, taus, diffs, lo, hi)
		case "fig5":
			d, err := figures.Fig5(w, runsFor(1000), *seed)
			if err != nil {
				return err
			}
			var ps, med, q1, q3 []float64
			for _, pt := range d.Points {
				ps = append(ps, float64(pt.P))
				med = append(med, pt.MedianUs)
				q1 = append(q1, pt.Q1Us)
				q3 = append(q3, pt.Q3Us)
			}
			return writeCSV("fig5_reduce",
				[]string{"p", "median_us", "q1_us", "q3_us"}, ps, med, q1, q3)
		case "fig6":
			d, err := figures.Fig6(w, runsFor(1000), *seed)
			if err != nil {
				return err
			}
			var ranks, means []float64
			for r, xs := range d.PerProcess {
				sum := 0.0
				for _, v := range xs {
					sum += v
				}
				ranks = append(ranks, float64(r))
				means = append(means, sum/float64(len(xs)))
			}
			return writeCSV("fig6_per_rank_means",
				[]string{"rank", "mean_us"}, ranks, means)
		case "fig7ab":
			d, err := figures.Fig7ab(w, 10, *seed)
			if err != nil {
				return err
			}
			var ps, meas, ideal, amdahl, pov []float64
			for _, pt := range d.Points {
				ps = append(ps, float64(pt.P))
				meas = append(meas, pt.TimeMs)
				ideal = append(ideal, pt.IdealMs)
				amdahl = append(amdahl, pt.AmdahlMs)
				pov = append(pov, pt.ParallelOvhdMs)
			}
			if err := writeSVG("fig7ab_scaling", func(f *os.File) error {
				return report.SVGXYPlot(f, "Pi scaling vs bounds models",
					"processes", "time (ms)", []report.Series{
						{Name: "measured", X: ps, Y: meas},
						{Name: "ideal linear", X: ps, Y: ideal},
						{Name: "Amdahl (b=0.01)", X: ps, Y: amdahl},
						{Name: "parallel overheads", X: ps, Y: pov},
					}, 640, 400)
			}); err != nil {
				return err
			}
			return writeCSV("fig7ab_scaling",
				[]string{"p", "measured_ms", "ideal_ms", "amdahl_ms", "par_ovhd_ms"},
				ps, meas, ideal, amdahl, pov)
		case "fig7c":
			_, err := figures.Fig7c(w, *samples, *seed)
			return err
		case "weak":
			_, err := figures.WeakScaling(w, 10, *seed)
			return err
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
	}

	w := os.Stdout
	if name == "all" {
		runAll(w, *jobs, run)
		return
	}
	if err := run(name, w); err != nil {
		fmt.Fprintf(os.Stderr, "figures: %v\n", err)
		os.Exit(1)
	}
}

// allExperiments is the canonical order `all` renders in — and therefore
// the byte order of its output, for every -j.
var allExperiments = []string{
	"table1", "means", "fig1", "fig2", "fig3", "fig4",
	"fig5", "fig6", "fig7ab", "fig7c", "weak",
}

// runAll renders every experiment on up to jobs goroutines (0 =
// GOMAXPROCS). On two procs the default ran `figures -quick all` in
// 0.59 s against 1.22 s on one (2.07×, 10 of 10 pairs; EXPERIMENTS.md).
// Experiments are independent given their seeds, so each
// renders into its own buffer; buffers are flushed to w in canonical
// order as soon as every earlier experiment has finished, making the
// output byte-identical to a serial run. On the first (canonical-order)
// failure the error goes to stderr and the process exits 1, just as the
// serial loop did — later experiments' output is not printed.
func runAll(w io.Writer, jobs int, run func(name string, w io.Writer) error) {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(allExperiments) {
		jobs = len(allExperiments)
	}

	outs := make([]bytes.Buffer, len(allExperiments))
	errs := make([]error, len(allExperiments))
	completions := make(chan int, len(allExperiments))
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < jobs; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(allExperiments) {
					return
				}
				errs[i] = run(allExperiments[i], &outs[i])
				completions <- i
			}
		}()
	}
	go func() {
		wg.Wait()
		close(completions)
	}()

	finished := make([]bool, len(allExperiments))
	nextFlush := 0
	for i := range completions {
		finished[i] = true
		for nextFlush < len(allExperiments) && finished[nextFlush] {
			exp := allExperiments[nextFlush]
			fmt.Fprintf(w, "==================== %s ====================\n", exp)
			io.Copy(w, &outs[nextFlush])
			if err := errs[nextFlush]; err != nil {
				fmt.Fprintf(os.Stderr, "figures: %s: %v\n", exp, err)
				os.Exit(1)
			}
			fmt.Fprintln(w)
			nextFlush++
		}
	}
}
