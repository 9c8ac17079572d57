// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one named workload repeatedly for a wall-clock budget,
// checks the canonical output of every iteration, and prints one JSON
// result line: the end-to-end metrics, or with -trace 1 the per-layer
// metrics of traced iterations interleaved with untraced ones.
//
//	bash perfbench/run.sh --workload sweep_remote --seed 1 --seconds 30 --trace 0
//
// README.md names the workloads, the metrics, and which layer metric
// should move which end-to-end metric.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/ci"
)

// heldOutSeed is reserved for confirming a claimed gain: a change is
// developed and tuned on other seeds and its claim re-checked on this one.
const heldOutSeed = 20151115

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the harness sees, printed by every
// untraced run. Each is the median over the run's timed iterations. A
// "ref" is the time of one run of the reference kernel (calib.go) around
// the same call, so wall_ref is the call's wall time in units of the
// host's current speed.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_ref", "ref"},
	{"work_per_ref", "1/ref"},
	{"cpu_ref", "ref"},
}

// perLayer are the traced run's metrics: medians over the traced
// iterations of per-iteration deltas, measured from outside the program,
// plus the raw seconds behind the end-to-end ratios and the process's
// peak resident set. A metric that does not apply to a workload reads 0.
var perLayer = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"calib_s", "s"},
	{"peak_rss_mb", "MB"},
	{"cluster.busy_s", "s"},
	{"cluster.calls", "count"},
	{"cluster.messages", "count"},
	{"bench.samples", "count"},
	{"bench.retries", "count"},
	{"bench.losses", "count"},
	{"bench.analyses", "count"},
	{"bench.analysis_s", "s"},
	{"bench.collect_s", "s"},
	{"campaign.unit_s", "s"},
	{"campaign.records", "count"},
	{"campaign.fsyncs", "count"},
	{"campaign.fsync_s", "s"},
	{"campaign.journal_bytes", "B"},
	{"campaign.bytes_per_record", "B"},
	{"shard.supervise_s", "s"},
	{"shard.merge_s", "s"},
	{"shard.tail_s", "s"},
	{"shard.executors_started", "count"},
	{"shard.reassignments", "count"},
	{"shard.stalls", "count"},
	{"remote.chunks", "count"},
	{"remote.chunk_bytes", "B"},
	{"remote.duplicates", "count"},
	{"remote.ship_errors", "count"},
	{"remote.stale_refused", "count"},
	{"remote.heartbeats", "count"},
	{"remote.ship_amplification", "ratio"},
	{"suite.configs", "count"},
	{"suite.config_s", "s"},
	{"suite.config_max_s", "s"},
	{"suite.occupancy", "workers"},
	{"serve.requests", "count"},
	{"serve.dropped", "count"},
	{"serve.batches", "count"},
	{"serve.mallocs_per_request", "ratio"},
	{"go.mallocs", "count"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_s", "s"},
	{"fail_frac", "ratio"},
	{"trace.overhead", "ratio"},
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// procs is the benchmark's GOMAXPROCS. On a shared 2-vCPU host a second
// runnable thread measures the host's scheduler rather than the program:
// a one-thread CPU load elsewhere on the host stretched sweep_remote's
// wall_s by 59% at GOMAXPROCS=2 and by 8% at 1, and idle Ps run GC mark
// work that makes cpu_s follow fsync latency. The workloads keep their 2
// goroutine workers, 2 shards and 2 loopback workers, interleaved on one
// P, so an executor's fsync overlaps the other's compute.
const procs = 1

func main() {
	runtime.GOMAXPROCS(procs)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	opt, err := parseFlags(args)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	res, err := execute(opt, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "workload name")
	fs.Uint64Var(&opt.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&opt.seconds, "seconds", 30, "wall-clock budget of the timed iterations")
	fs.IntVar(&trace, "trace", 0, "1 = interleave traced iterations and print the per-layer metrics")
	fs.StringVar(&opt.root, "root", ".", "checkout root; scratch files go under <root>/.bench_build")
	if err := fs.Parse(args); err != nil {
		return opt, err
	}
	opt.trace = trace == 1
	switch {
	case lookupWorkload(opt.workload) == nil:
		return opt, fmt.Errorf("unknown -workload %q (one of %s)", opt.workload, workloadNames())
	case trace != 0 && trace != 1:
		return opt, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	return opt, nil
}

// iteration is one prepared-and-timed execution of a workload.
type iteration struct {
	traced    bool
	setup     float64 // seconds of set-up before the timed call
	wall      float64 // seconds of the timed call
	cpu       float64 // seconds of user+sys CPU during the timed call
	calib     float64 // seconds of the reference kernel, mean of the runs before and after the call
	work      float64
	layers    map[string]float64
	attempted int
	failed    int
}

// execute runs one workload for the budget and assembles the result.
func execute(opt options, stdout, stderr io.Writer) (result, error) {
	w := lookupWorkload(opt.workload)
	work := filepath.Join(opt.root, ".bench_build", "work", fmt.Sprintf("%s-%d", opt.workload, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(work)
	b := &bencher{seed: opt.seed, dir: work, log: stderr}

	if err := json.NewEncoder(stdout).Encode(map[string]any{"env": ruleNine(opt, work)}); err != nil {
		return result{}, err
	}

	var ref []byte
	if w.reference != nil {
		var err error
		if ref, err = w.reference(b); err != nil {
			return result{}, fmt.Errorf("%s: reference run: %w", w.name, err)
		}
	}
	// check compares an iteration's output with the reference; on a
	// mismatch every operation of the iteration counts as failed.
	check := func(it *iteration, out []byte) {
		if ref == nil {
			ref = out
		} else if !bytes.Equal(out, ref) {
			it.failed = max(it.attempted, 1)
			fmt.Fprintf(stderr, "perfbench: %s: output differs from the reference\n", w.name)
		}
	}

	// The warm-up iteration fills caches and finishes lazy set-up; its
	// output is checked like every other, but its timings are dropped.
	warm, out, err := b.iterate(w, false)
	if err != nil {
		return result{}, fmt.Errorf("%s: warm-up: %w", w.name, err)
	}
	check(&warm, out)
	attempted, failed := warm.attempted, warm.failed

	minIters := 3
	if opt.trace {
		minIters = 4
	}
	budget := time.Duration(opt.seconds * float64(time.Second))
	start := time.Now()
	var plain, traced []iteration
	for i := 0; i < minIters || time.Since(start) < budget; i++ {
		it, out, err := b.iterate(w, opt.trace && i%2 == 1)
		if err != nil {
			return result{}, fmt.Errorf("%s: iteration %d: %w", w.name, i, err)
		}
		check(&it, out)
		attempted += it.attempted
		failed += it.failed
		if it.traced {
			traced = append(traced, it)
		} else {
			plain = append(plain, it)
		}
	}

	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	series := map[string][]float64{
		"setup_s":      collect(plain, func(it iteration) float64 { return it.setup }),
		"wall_ref":     collect(plain, func(it iteration) float64 { return it.wall / it.calib }),
		"work_per_ref": collect(plain, func(it iteration) float64 { return it.work * it.calib / it.wall }),
		"cpu_ref":      collect(plain, func(it iteration) float64 { return it.cpu / it.calib }),
	}
	defs := endToEnd
	if opt.trace {
		defs = perLayer
		for _, d := range perLayer {
			series[d.name] = collect(traced, func(it iteration) float64 { return it.layers[d.name] })
		}
		series["wall_s"] = collect(traced, func(it iteration) float64 { return it.wall })
		series["cpu_s"] = collect(traced, func(it iteration) float64 { return it.cpu })
		series["calib_s"] = collect(traced, func(it iteration) float64 { return it.calib })
		series["peak_rss_mb"] = []float64{peakRSSMB()}
		series["fail_frac"] = []float64{float64(failed) / float64(attempted)}
		series["trace.overhead"] = []float64{median(series["wall_s"]) /
			median(collect(plain, func(it iteration) float64 { return it.wall }))}
	}
	for _, d := range defs {
		res.Metrics[d.name] = metric{median(series[d.name]), d.unit}
	}
	printSummary(stderr, opt, len(plain), len(traced), series, res)
	return res, nil
}

func collect(its []iteration, f func(iteration) float64) []float64 {
	out := make([]float64, len(its))
	for i, it := range its {
		out[i] = f(it)
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// printSummary writes each printed metric's median with its
// nonparametric 95% CI over the iterations, for a human reader.
func printSummary(w io.Writer, opt options, plain, traced int, series map[string][]float64, res result) {
	fmt.Fprintf(w, "perfbench %s seed=%d: %d untraced + %d traced iteration(s), %d of %d operation(s) failed, correct=%v\n",
		opt.workload, opt.seed, plain, traced, res.Failed, res.Attempted, res.Correct)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		xs, m := series[name], res.Metrics[name]
		if iv, err := ci.MedianCI(xs, 0.95); err == nil {
			fmt.Fprintf(w, "  %-28s %12.6g %-7s 95%% CI [%.6g, %.6g] n=%d\n", name, m.Value, m.Unit, iv.Lo, iv.Hi, len(xs))
		} else {
			fmt.Fprintf(w, "  %-28s %12.6g %-7s n=%d\n", name, m.Value, m.Unit, len(xs))
		}
	}
}

// cpuSeconds is the process's user+sys CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's peak resident set in MB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
