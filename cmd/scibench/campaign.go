// Durable, interruptible campaigns: the `scibench campaign` and
// `scibench resume` subcommands. A campaign journals every collection
// event (CRC-framed chunks, group fsync) into a directory next to a
// manifest that pins the exact setup; Ctrl-C, SIGTERM, or an elapsed
// -budget checkpoints cleanly, and `scibench resume` continues the same
// campaign bit-for-bit — refusing, with Rule 9 findings, if any flag
// drifted from the recorded configuration.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	scibench "repro"
)

// campaignConfig is the complete recorded setup of a journaled campaign:
// it is persisted as config.json in the campaign directory and hashed
// into the manifest, so `scibench resume` can rebuild the exact same
// measurement — and refuse anything else.
type campaignConfig struct {
	System   string        `json:"system"`
	Samples  int           `json:"samples"`
	RelErr   float64       `json:"relerr"`
	Seed     uint64        `json:"seed"`
	Faults   string        `json:"faults,omitempty"`
	Throttle time.Duration `json:"throttle_ns,omitempty"`
}

const campaignConfigFile = "config.json"

func cmdCampaign(args []string) error {
	fs := flag.NewFlagSet("campaign", flag.ExitOnError)
	dir := fs.String("dir", "", "campaign directory (required)")
	shards := fs.Int("shards", 0, "distributed mode: run the sweep as this many shards on in-process loopback workers (or on -remote agents)")
	units := fs.Int("units", 8, "sweep units in distributed mode (replications at consecutive seeds)")
	hbTimeout := fs.Duration("heartbeat-timeout", 5*time.Second, "distributed mode: executor liveness timeout")
	remoteAddr := fs.String("remote", "", "distributed mode: serve a coordinator on this address and run shards on registered `scibench worker` agents instead of loopback workers")
	minWorkers := fs.Int("min-workers", 1, "distributed -remote mode: wait for this many workers before starting")
	cc, budget, workers, telAddr := campaignFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("-dir is required")
	}
	if *remoteAddr != "" && *shards <= 0 {
		return fmt.Errorf("-remote requires -shards N")
	}
	if *shards > 0 {
		return runShardedCampaign(*dir, *cc, *units, *shards, *hbTimeout, *remoteAddr, *minWorkers)
	}
	if err := writeCampaignConfig(*dir, *cc); err != nil {
		return err
	}
	stopTel, err := startTelemetry(*telAddr, *dir)
	if err != nil {
		return err
	}
	defer stopTel()

	man, plan, measure, err := campaignSetup(*dir, *cc)
	if err != nil {
		return err
	}
	plan.Workers = *workers
	ctx, stop := campaignContext(*budget)
	defer stop()

	res, err := scibench.RunCampaign(ctx, *dir, man, plan, measure)
	return reportCampaign(*dir, res, err, ctx)
}

func cmdResume(args []string) error {
	fs := flag.NewFlagSet("resume", flag.ExitOnError)
	cc, budget, workers, telAddr := campaignFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	dir := fs.Arg(0)
	if dir == "" {
		return fmt.Errorf("usage: scibench resume [flags] <campaign-dir>")
	}
	stopTel, err := startTelemetry(*telAddr, dir)
	if err != nil {
		return err
	}
	defer stopTel()
	recorded, err := readCampaignConfig(dir)
	if err != nil {
		return err
	}
	// Flags left at their defaults resume the recorded setup; any flag
	// the caller explicitly set overrides it — and an override that
	// changes the campaign identity is refused below as manifest drift.
	current := applyOverrides(recorded, fs, *cc)

	man, plan, measure, err := campaignSetup(dir, current)
	if err != nil {
		return err
	}
	plan.Workers = *workers
	ctx, stop := campaignContext(*budget)
	defer stop()

	res, info, err := scibench.ResumeCampaign(ctx, dir, man, plan, measure, scibench.CampaignResumeOptions{})
	if err != nil {
		if errors.Is(err, scibench.ErrManifestDrift) {
			fmt.Fprintln(os.Stdout, "resume REFUSED: the current setup does not match the recorded campaign")
			if werr := scibench.WriteRulesReport(os.Stdout, info.Findings); werr != nil {
				return werr
			}
		}
		return err
	}

	fmt.Printf("recovered %d sample(s) from the journal", info.PriorSamples)
	if info.Torn {
		fmt.Print(" (torn tail record dropped — crash mid-append)")
	}
	fmt.Println()
	if info.FastForwarded > 0 {
		fmt.Printf("fast-forwarded the measure source %d invocation(s); "+
			"%d replayed sample(s) verified bit-identical\n", info.FastForwarded, info.ReplayChecked)
	}
	if info.BoundaryDrift {
		fmt.Printf("WARNING: regime shift at the suspend/resume boundary (p ≈ %.3g) — "+
			"the environment drifted while suspended; quarantine the resumed half (Rule 6)\n", info.Boundary.P)
	}
	return reportCampaign(dir, res, nil, ctx)
}

// campaignFlags registers the flags shared by campaign and resume; the
// returned config holds the parsed values after fs.Parse. The analysis
// worker count is returned separately: it changes only how fast the
// statistics are computed, never their values, so it is deliberately NOT
// part of the recorded campaign identity (running a campaign with -j 1
// and resuming it with -j 8 is not drift).
func campaignFlags(fs *flag.FlagSet) (*campaignConfig, *time.Duration, *int, *string) {
	cc := &campaignConfig{}
	fs.StringVar(&cc.System, "system", "daint", "simulated system: daint|dora|pilatus")
	fs.IntVar(&cc.Samples, "samples", 200, "sample budget (adaptive max)")
	fs.Float64Var(&cc.RelErr, "relerr", 0.02, "target relative CI width")
	fs.Uint64Var(&cc.Seed, "seed", 1, "RNG seed of the simulated machine")
	fs.StringVar(&cc.Faults, "faults", "", "fault preset(s) to inject (see `scibench generate`)")
	fs.DurationVar(&cc.Throttle, "throttle", 0, "wall-clock pause before each observation (pacing)")
	budget := fs.Duration("budget", 0, "wall-clock campaign budget (e.g. 10m); 0 means unlimited")
	workers := fs.Int("j", 0, "analysis workers (0 = GOMAXPROCS); results are worker-count invariant")
	// Telemetry observes the harness but never steers it, so — like -j —
	// it is deliberately NOT part of the recorded campaign identity.
	telAddr := fs.String("telemetry", "", "serve /metrics, /trace, and /debug/pprof on this address (e.g. :8080); spans also stream to <dir>/trace.bin (read it with scibench dump)")
	return cc, budget, workers, telAddr
}

// startTelemetry arms span tracing (appending the trace out-of-band of
// the journal and manifest, as chunked binary — the journal's encoder —
// to <dir>/trace.bin) and serves the observability endpoint. An empty
// addr is a no-op; the returned stop function is always safe to call.
func startTelemetry(addr, dir string) (func(), error) {
	if addr == "" {
		return func() {}, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "trace.bin")
	sink, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	bw := scibench.NewBinaryTraceWriter(sink)
	scibench.EnableTelemetryTraceSink(bw)
	srv, err := scibench.ServeTelemetry(addr)
	if err != nil {
		scibench.DisableTelemetryTrace()
		sink.Close()
		return nil, fmt.Errorf("-telemetry: %w", err)
	}
	fmt.Fprintf(os.Stderr, "telemetry on http://%s (/metrics, /trace, /debug/pprof); trace at %s\n",
		srv.Addr(), path)
	return func() {
		srv.Close()
		scibench.DisableTelemetryTrace()
		bw.Close()
		sink.Close()
	}, nil
}

// applyOverrides starts from the recorded config and applies only the
// flags the caller explicitly set on the resume command line.
func applyOverrides(recorded campaignConfig, fs *flag.FlagSet, parsed campaignConfig) campaignConfig {
	out := recorded
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "system":
			out.System = parsed.System
		case "samples":
			out.Samples = parsed.Samples
		case "relerr":
			out.RelErr = parsed.RelErr
		case "seed":
			out.Seed = parsed.Seed
		case "faults":
			out.Faults = parsed.Faults
		case "throttle":
			out.Throttle = parsed.Throttle
		}
	})
	return out
}

// campaignContext wires SIGINT/SIGTERM and the optional wall-clock
// budget into one cancellation context.
func campaignContext(budget time.Duration) (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	if budget <= 0 {
		return ctx, stop
	}
	tctx, cancel := context.WithTimeout(ctx, budget)
	return tctx, func() { cancel(); stop() }
}

// campaignSetup rebuilds the deterministic measurement from a recorded
// configuration: the manifest (campaign identity), the collection plan,
// and the ping-pong measure closure on the seeded simulated machine.
func campaignSetup(dir string, cc campaignConfig) (scibench.CampaignManifest, scibench.Plan, func() (float64, error), error) {
	return campaignSetupNamed(filepath.Base(dir), cc)
}

// campaignSetupNamed is campaignSetup with an explicit campaign name —
// shard executors name each unit campaign after its unit ID.
func campaignSetupNamed(name string, cc campaignConfig) (scibench.CampaignManifest, scibench.Plan, func() (float64, error), error) {
	var clusterCfg scibench.ClusterConfig
	switch cc.System {
	case "daint":
		clusterCfg = scibench.PizDaint()
	case "dora":
		clusterCfg = scibench.PizDora()
	case "pilatus":
		clusterCfg = scibench.Pilatus()
	default:
		return scibench.CampaignManifest{}, scibench.Plan{}, nil,
			fmt.Errorf("unknown system %q", cc.System)
	}
	sched, err := scibench.FaultPreset(cc.Faults)
	if err != nil {
		return scibench.CampaignManifest{}, scibench.Plan{}, nil, fmt.Errorf("-faults: %w", err)
	}
	clusterCfg.Faults = sched

	m, err := scibench.NewCluster(clusterCfg, 2, cc.Seed)
	if err != nil {
		return scibench.CampaignManifest{}, scibench.Plan{}, nil, err
	}
	measure := func() (float64, error) {
		if cc.Throttle > 0 {
			time.Sleep(cc.Throttle)
		}
		d := m.PingPong(0, 1, 64, 1)[0]
		return float64(d) / float64(time.Microsecond), nil
	}

	man, err := scibench.NewCampaignManifest(name, cc.Seed, cc, sched, campaignEnv(cc))
	if err != nil {
		return scibench.CampaignManifest{}, scibench.Plan{}, nil, err
	}
	plan := scibench.Plan{
		Warmup:     3,
		MaxSamples: cc.Samples,
		RelErr:     cc.RelErr,
	}
	return man, plan, measure, nil
}

// campaignEnv is the Rule 9 environment block recorded for a campaign
// configuration. The seed is deliberately excluded: shard units of one
// sweep differ only by seed and must share one env fingerprint, seeds
// being pinned per-unit in the manifests instead.
func campaignEnv(cc campaignConfig) scibench.ExperimentEnv {
	return scibench.ExperimentEnv{
		Processor:        "simulated " + cc.System + " (cluster package)",
		Network:          "simulated interconnect, 2 ranks, ping-pong 64 B",
		MeasurementSetup: "1 round per observation, journaled write-ahead",
		InputAndCode:     "scibench campaign (repro module)",
		NotApplicable:    []string{"memory", "compiler", "runtime", "filesystem", "codeurl"},
	}
}

// reportCampaign prints the campaign outcome and exits 3 on a clean
// interruption, after printing the resume hint.
func reportCampaign(dir string, res scibench.Result, err error, ctx context.Context) error {
	interrupted := res.Stop == scibench.StopInterrupted
	if err != nil {
		// Cancelled before even two samples landed: nothing to analyze,
		// but the journal is already durable and resumable.
		if ctx.Err() != nil && errors.Is(err, scibench.ErrTooFewSamples) {
			fmt.Println("campaign interrupted before an analyzable sample was collected")
			interrupted = true
		} else {
			return err
		}
	} else {
		fmt.Printf("result: %s\n", res)
	}
	if interrupted {
		fmt.Printf("campaign interrupted; continue it with: scibench resume %s\n", dir)
		os.Exit(3)
	}
	return nil
}

func writeCampaignConfig(dir string, cc campaignConfig) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(cc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, campaignConfigFile), append(b, '\n'), 0o644)
}

func readCampaignConfig(dir string) (campaignConfig, error) {
	b, err := os.ReadFile(filepath.Join(dir, campaignConfigFile))
	if err != nil {
		return campaignConfig{}, fmt.Errorf("reading campaign config: %w", err)
	}
	var cc campaignConfig
	if err := json.Unmarshal(b, &cc); err != nil {
		return campaignConfig{}, fmt.Errorf("parsing campaign config: %w", err)
	}
	return cc, nil
}
