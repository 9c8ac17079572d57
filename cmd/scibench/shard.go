// Distributed campaigns: the `scibench shard`, `scibench exec`, and
// `scibench merge` subcommands, plus the `-shards N` mode of
// `scibench campaign`, which supervises the shards on worker agents —
// in-process loopback workers, or `scibench worker` agents with
// -remote. A sweep is K independent seeded replications of the
// campaign configuration (unit i runs seed+i); its canonical unit
// order is partitioned into contiguous shards, each shard runs as an
// independent journaled executor, and the merge reassembles one report
// byte-identical to the single-process run — however many executors
// ran, crashed, or were reassigned along the way.
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

// shardUnits builds the sweep's canonical unit table: K replications of
// cc with consecutive seeds, each carrying its full config and the
// config hash its executor-built manifest must reproduce.
func shardUnits(cc campaignConfig, k int) ([]scibench.ShardUnit, error) {
	units := make([]scibench.ShardUnit, k)
	for i := range units {
		u := cc
		u.Seed = cc.Seed + uint64(i)
		raw, err := json.Marshal(u)
		if err != nil {
			return nil, err
		}
		ch, err := scibench.HashCampaignConfig(u)
		if err != nil {
			return nil, err
		}
		units[i] = scibench.ShardUnit{
			ID:         fmt.Sprintf("u%03d-seed-%d", i, u.Seed),
			Seed:       u.Seed,
			ConfigHash: ch,
			Config:     raw,
		}
	}
	return units, nil
}

// buildShardSweep validates the configuration once (the same checks an
// executor will re-run) and assembles the sweep manifest.
func buildShardSweep(name string, cc campaignConfig, units, shards int) (scibench.ShardSweep, error) {
	if _, _, _, err := campaignSetupNamed(name, cc); err != nil {
		return scibench.ShardSweep{}, err
	}
	sched, err := scibench.FaultPreset(cc.Faults)
	if err != nil {
		return scibench.ShardSweep{}, err
	}
	faultFP, err := scibench.HashCampaignConfig(sched)
	if err != nil {
		return scibench.ShardSweep{}, err
	}
	us, err := shardUnits(cc, units)
	if err != nil {
		return scibench.ShardSweep{}, err
	}
	return scibench.NewShardSweep(name, us, faultFP, campaignEnv(cc), shards)
}

// errShardsLost makes main exit 4 once every deferred cleanup has run:
// the merged report is printed but partial (Rule 4).
var errShardsLost = errors.New("shards lost")

// cliRunner rebuilds a unit's journaled campaign from the recorded
// config — the executor side of the shard contract.
type cliRunner struct{}

func (cliRunner) Setup(u scibench.ShardUnit) (scibench.CampaignManifest, scibench.Plan, func() (float64, error), error) {
	var cc campaignConfig
	if err := json.Unmarshal(u.Config, &cc); err != nil {
		return scibench.CampaignManifest{}, scibench.Plan{}, nil,
			fmt.Errorf("unit %s: corrupt config: %w", u.ID, err)
	}
	return campaignSetupNamed(u.ID, cc)
}

func cmdShard(args []string) error {
	fs := flag.NewFlagSet("shard", flag.ExitOnError)
	dir := fs.String("dir", "", "sweep directory (required)")
	shards := fs.Int("shards", 2, "number of shards (executor processes)")
	units := fs.Int("units", 8, "sweep units: independent replications with consecutive seeds")
	cc, _, _ := campaignFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("-dir is required")
	}
	sw, err := buildShardSweep(filepath.Base(*dir), *cc, *units, *shards)
	if err != nil {
		return err
	}
	if err := scibench.CreateShardSweep(*dir, sw); err != nil {
		return err
	}
	fmt.Printf("sweep %s: %d unit(s) partitioned into %d shard(s) under %s\n",
		sw.Name, len(sw.Units), sw.NumShards, *dir)
	for i, m := range sw.Shards() {
		fmt.Printf("  shard %d: %d unit(s) — run with: scibench exec %s\n",
			i, len(m.Units), filepath.Join(*dir, scibench.ShardDirName(i)))
	}
	fmt.Printf("merge when done with: scibench merge -dir %s\n", *dir)
	return nil
}

func cmdExec(args []string) error {
	fs := flag.NewFlagSet("exec", flag.ExitOnError)
	attempt := fs.Int("attempt", 1, "supervisor attempt number (recorded in done.json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	dir := fs.Arg(0)
	if dir == "" {
		return fmt.Errorf("usage: scibench exec [-attempt N] <shard-dir>")
	}
	return scibench.ExecShard(context.Background(), dir, cliRunner{}, scibench.ShardExecOptions{
		Attempt:  *attempt,
		Progress: os.Stderr,
	})
}

func cmdMerge(args []string) error {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	dir := fs.String("dir", "", "sweep directory (required)")
	ops := fs.Bool("ops", false, "append the operational annex (per-shard attempts, env fingerprints, seam checks)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("-dir is required")
	}
	rep, err := scibench.MergeShards(*dir)
	if err != nil {
		return err
	}
	if err := scibench.WriteMergedShardManifest(*dir, rep); err != nil {
		return err
	}
	if err := rep.WriteReport(os.Stdout); err != nil {
		return err
	}
	if *ops {
		fmt.Println()
		if err := rep.WriteOps(os.Stdout); err != nil {
			return err
		}
	}
	if rep.UnitsLost > 0 {
		os.Exit(4)
	}
	return nil
}

// runShardedCampaign is `scibench campaign -shards N`: build (or
// reopen) the sweep, serve its coordinator on the -remote address or on
// loopback, supervise the shards on the registered workers — without
// -remote, one in-process worker per shard, so no executor outlives the
// campaign — and merge. A shard that exhausts its retries is reported
// lost (exit 4), degrading — never corrupting — the merge.
func runShardedCampaign(dir string, cc campaignConfig, units, shards int,
	timeout time.Duration, remoteAddr string, minWorkers int) error {
	if _, err := scibench.LoadShardSweep(dir); err != nil {
		sw, err := buildShardSweep(filepath.Base(dir), cc, units, shards)
		if err != nil {
			return err
		}
		if err := scibench.CreateShardSweep(dir, sw); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(os.Stderr, "resuming existing sweep in %s\n", dir)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	listen := remoteAddr
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	c, err := scibench.NewRemoteCoordinator(dir, scibench.RemoteCoordinatorOptions{
		Listen:           listen,
		HeartbeatTimeout: timeout,
		Seed:             cc.Seed,
		Log:              os.Stderr,
	})
	if err != nil {
		return err
	}
	defer c.Close()
	if remoteAddr != "" {
		fmt.Fprintf(os.Stderr, "coordinator on %s — start agents with: scibench worker -coordinator %s\n",
			c.URL(), c.URL())
		fmt.Fprintf(os.Stderr, "waiting for %d worker(s) to register...\n", minWorkers)
	} else {
		for i := 0; i < shards; i++ {
			w, err := scibench.StartRemoteWorker(scibench.RemoteWorkerOptions{
				Coordinator: c.URL(),
				Runner:      cliRunner{},
				Seed:        cc.Seed + uint64(i),
				Log:         os.Stderr,
			})
			if err != nil {
				return err
			}
			defer w.Close()
		}
		minWorkers = shards
	}

	if err := c.WaitForWorkers(ctx, minWorkers); err != nil {
		return fmt.Errorf("waiting for workers: %w", err)
	}
	for _, w := range c.Workers() {
		fmt.Fprintf(os.Stderr, "  worker %s at %s (%s, env %.12s)\n", w.ID, w.Addr, w.Hostname, w.EnvFP)
	}

	statuses, err := scibench.SuperviseShards(ctx, dir, c.StartFunc(),
		scibench.ShardSuperviseOptions{Seed: cc.Seed, Log: os.Stderr})
	if err != nil {
		return err
	}
	lost := 0
	for _, st := range statuses {
		if st.Lost {
			lost++
			fmt.Fprintf(os.Stderr, "shard %d LOST after %d attempt(s): %v\n", st.Shard, st.Attempts, st.Err)
		}
	}
	rep, err := scibench.MergeShards(dir)
	if err != nil {
		return err
	}
	if err := scibench.WriteMergedShardManifest(dir, rep); err != nil {
		return err
	}
	if err := rep.WriteReport(os.Stdout); err != nil {
		return err
	}
	if lost > 0 {
		return errShardsLost
	}
	return nil
}
