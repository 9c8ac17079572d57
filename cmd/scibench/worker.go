// Cross-machine campaigns: the `scibench worker` subcommand, the agent
// `scibench campaign -shards N -remote ADDR` runs shards on. A worker
// registers with a coordinator, executes assigned shards locally with
// the same journaled executor `scibench exec` uses, and ships journal
// chunks back over HTTP with CRC framing and resumable offsets. The
// coordinator mirrors each shard into the sweep directory, so the
// supervisor, the merge, and byte-identity work exactly as with the
// loopback workers of a plain `-shards N` campaign — with workers that
// crash, stall, or partition detected and their shards reassigned.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	scibench "repro"
)

func cmdWorker(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	coord := fs.String("coordinator", "", "coordinator base URL, e.g. http://10.0.0.1:7700 (required)")
	listen := fs.String("listen", "127.0.0.1:0", "address this worker serves assignments on")
	advertise := fs.String("advertise", "", "host the coordinator should call back on (default: the listen host)")
	work := fs.String("work", "", "local working directory for shard journals (default: a temp dir)")
	ship := fs.Duration("ship", 0, "journal shipping interval (0 = default)")
	seed := fs.Uint64("worker-seed", 1, "seed for this worker's retry jitter")
	// Chaos flags: a seeded fault injector on this worker's link, for
	// rehearsing partition tolerance without real packet loss.
	fDrop := fs.Float64("fault-drop", 0, "inject: probability a request is dropped")
	fDelay := fs.Float64("fault-delay", 0, "inject: probability a request is delayed")
	fDelayBy := fs.Duration("fault-delay-by", 5*time.Millisecond, "inject: delay duration")
	fDup := fs.Float64("fault-dup", 0, "inject: probability a request is duplicated")
	fSeed := fs.Uint64("fault-seed", 1, "inject: fault stream seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *coord == "" {
		return fmt.Errorf("-coordinator is required")
	}
	var rt http.RoundTripper
	if *fDrop > 0 || *fDelay > 0 || *fDup > 0 {
		ft := scibench.NewRemoteFaultTransport(*fSeed, nil)
		ft.DropProb = *fDrop
		ft.DelayProb = *fDelay
		ft.Delay = *fDelayBy
		ft.DupProb = *fDup
		rt = ft
		fmt.Fprintf(os.Stderr, "worker: injecting faults (drop %.2f, delay %.2f × %s, dup %.2f, seed %d)\n",
			*fDrop, *fDelay, *fDelayBy, *fDup, *fSeed)
	}
	w, err := scibench.StartRemoteWorker(scibench.RemoteWorkerOptions{
		Coordinator:   *coord,
		Listen:        *listen,
		AdvertiseHost: *advertise,
		WorkDir:       *work,
		Runner:        cliRunner{},
		ShipInterval:  *ship,
		Seed:          *seed,
		Transport:     rt,
		Log:           os.Stderr,
	})
	if err != nil {
		return err
	}
	defer w.Close()
	fmt.Fprintf(os.Stderr, "worker %s serving on %s (coordinator %s)\n", w.ID(), w.URL(), *coord)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	fmt.Fprintln(os.Stderr, "worker: shutting down")
	return nil
}
