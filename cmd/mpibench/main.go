// Command mpibench is a SKaMPI-style collective microbenchmark suite on
// the simulated machines: it sweeps collectives × process counts ×
// payload sizes with adaptive CI-driven sampling, delay-window
// synchronization, and statistically sound summaries, then fits
// LogP-style scaling models to each collective (§6's "building block
// for a new benchmark suite").
//
// Usage:
//
//	mpibench [-system daint|dora|pilatus] [-collectives reduce,bcast,...]
//	         [-ranks 2,4,8,16,32] [-bytes 8,1024] [-relerr 0.05]
//	         [-seed 1] [-faults straggler,burst] [-ceiling 0]
//	         [-budget 0] [-j 0] [-mode auto] [-summary-threshold 0] [-v]
//
// -j measures up to N configurations concurrently (0 = GOMAXPROCS); the
// report is bit-identical for every worker count because per-
// configuration seeds are assigned from the canonical sweep order before
// fan-out.
//
// A second workload family measures open-loop service latency instead of
// collectives, sweeping seeded arrivals into simulated servers over an
// offered-load ramp:
//
//	mpibench -workload serve [-arrival poisson|diurnal|onoff]
//	         [-loads 0.1,0.3,...] [-epoch 10s] [-epochs 6]
//	         [-servers 1] [-queue 0] [-batch 1] [-batch-delay 0]
//	         [-service 1ms] [-sigma 0.5] [-seed 1] [-j 0] [-v]
//
// It ramps seeded open-loop arrivals through the offered-load fractions,
// records every request latency in a mergeable log-bucketed histogram,
// and reports p50/p99/p999 with rank-based nonparametric CIs plus the
// detected latency knee — tail percentiles free of coordinated omission.
//
// The sweep is interruptible: Ctrl-C (or an elapsed -budget) checkpoints
// cleanly, prints the partial report with the interruption labeled, and
// exits with status 3.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/suite"
	"repro/internal/telemetry"
)

func main() {
	var (
		workload    = flag.String("workload", "collectives", "workload family: collectives|serve")
		system      = flag.String("system", "daint", "simulated system: daint|dora|pilatus")
		collectives = flag.String("collectives", "", "comma-separated subset (default: all)")
		ranks       = flag.String("ranks", "2,4,8,16,32", "comma-separated process counts")
		bytesFlag   = flag.String("bytes", "8,1024", "comma-separated payload sizes")
		relErr      = flag.Float64("relerr", 0.05, "target relative CI width")
		seed        = flag.Uint64("seed", 1, "RNG seed")
		faultsFlag  = flag.String("faults", "", "fault preset(s) to inject: "+
			strings.Join(faults.PresetNames(), "|")+" (comma-separated to combine)")
		ceiling = flag.Float64("ceiling", 0, "resilient collection: discard+retry observations at or above this value (µs); 0 disables")
		budget  = flag.Duration("budget", 0, "wall-clock campaign budget (e.g. 10m); 0 means unlimited")
		workers = flag.Int("j", 0, "configurations to measure concurrently (0 = GOMAXPROCS); results are worker-count invariant")
		mode    = flag.String("mode", "auto", "collective result mode: auto|perrank|summary (summary keeps million-rank sweeps allocation-flat)")
		sumThr  = flag.Int("summary-threshold", 0, "rank count at which auto mode switches to summary results (0 = engine default)")
		verbose = flag.Bool("v", false, "stream per-configuration progress")
		telAddr = flag.String("telemetry", "", "serve /metrics, /trace, and /debug/pprof on this address (e.g. :8080); also enables span tracing")

		// serve workload flags (ignored by -workload collectives).
		sv serveFlags
	)
	sv.register(flag.CommandLine)
	flag.Parse()

	if *telAddr != "" {
		telemetry.EnableSink(nil)
		tsrv, err := telemetry.Serve(*telAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mpibench: -telemetry: %v\n", err)
			os.Exit(2)
		}
		defer tsrv.Close()
		fmt.Fprintf(os.Stderr, "mpibench: telemetry on http://%s (/metrics, /trace, /debug/pprof)\n", tsrv.Addr())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *budget)
		defer cancel()
	}

	var progressW io.Writer
	if *verbose {
		progressW = os.Stderr
	}
	switch *workload {
	case "collectives":
	case "serve":
		if err := runServe(ctx, sv, *seed, *workers, progressW); err != nil {
			fmt.Fprintf(os.Stderr, "mpibench: %v\n", err)
			os.Exit(1)
		}
		return
	default:
		fmt.Fprintf(os.Stderr, "mpibench: unknown workload %q (collectives|serve)\n", *workload)
		os.Exit(2)
	}

	var clusterCfg cluster.Config
	switch *system {
	case "daint":
		clusterCfg = cluster.PizDaint()
	case "dora":
		clusterCfg = cluster.PizDora()
	case "pilatus":
		clusterCfg = cluster.Pilatus()
	default:
		fmt.Fprintf(os.Stderr, "mpibench: unknown system %q\n", *system)
		os.Exit(2)
	}
	sched, err := faults.Preset(*faultsFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mpibench: -faults: %v\n", err)
		os.Exit(2)
	}
	clusterCfg.Faults = sched
	if sched != nil {
		// Rule 9: injected faults are part of the experimental setup.
		fmt.Fprintf(os.Stderr, "mpibench: injecting faults: %s\n", sched)
	}
	if clusterCfg.ResultMode, err = cluster.ParseResultMode(*mode); err != nil {
		fmt.Fprintf(os.Stderr, "mpibench: -mode: %v\n", err)
		os.Exit(2)
	}
	clusterCfg.SummaryThreshold = *sumThr

	cfg := suite.Config{
		Cluster: clusterCfg,
		RelErr:  *relErr,
		Seed:    *seed,
		Workers: *workers,
	}
	if *ceiling > 0 {
		cfg.Resilience = &bench.Resilience{ValueCeiling: *ceiling}
	}
	if *collectives != "" {
		cfg.Collectives = strings.Split(*collectives, ",")
	}
	if cfg.Ranks, err = parseInts(*ranks); err != nil {
		fmt.Fprintf(os.Stderr, "mpibench: -ranks: %v\n", err)
		os.Exit(2)
	}
	if cfg.Bytes, err = parseInts(*bytesFlag); err != nil {
		fmt.Fprintf(os.Stderr, "mpibench: -bytes: %v\n", err)
		os.Exit(2)
	}

	res, err := suite.Run(ctx, cfg, progressW)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mpibench: %v\n", err)
		os.Exit(1)
	}
	if err := res.WriteReport(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "mpibench: %v\n", err)
		os.Exit(1)
	}
	if res.Interrupted {
		fmt.Fprintln(os.Stderr, "mpibench: sweep interrupted; report above is partial")
		os.Exit(3)
	}
}

func parseInts(csv string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(csv, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		if v < 1 {
			return nil, fmt.Errorf("value %d must be positive", v)
		}
		out = append(out, v)
	}
	return out, nil
}
