// Resume: a durable campaign interrupted mid-run, corrupted by a
// simulated crash, and resumed bit-for-bit.
//
// The walkthrough runs a journaled ping-pong campaign on a simulated
// Piz Daint and cancels it partway through collection — the clean stop
// seals every event into the journal's CRC-framed chunks. It then cuts
// the last chunk short the way a crash mid-append would, resumes the
// campaign (the torn chunk is dropped and its records re-measured, the
// measure source fast-forwarded, every recovered sample re-verified),
// and finally shows that the completed result is
// bit-identical to an uninterrupted campaign with the same seed — the
// property that makes an interruption a pause, not a lost experiment
// (Rule 2: report all data; Rule 9: pin the setup).
//
// Run with: go run ./examples/resume [-seed S]
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"time"

	scibench "repro"
)

func main() {
	seed := uint64(21)
	if len(os.Args) > 2 && os.Args[1] == "-seed" {
		fmt.Sscan(os.Args[2], &seed)
	}

	base, err := os.MkdirTemp("", "scibench-resume")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(base)

	plan := scibench.Plan{Warmup: 3, MaxSamples: 150, RelErr: 0.005}
	type setup struct {
		System string `json:"system"`
		Seed   uint64 `json:"seed"`
	}
	config := setup{System: "daint", Seed: seed}
	env := scibench.ExperimentEnv{
		Processor:        "simulated Piz Daint (cluster package)",
		Network:          "simulated interconnect, ping-pong 64 B",
		MeasurementSetup: fmt.Sprintf("journaled campaign, seed %d", seed),
		NotApplicable:    []string{"memory", "compiler", "runtime", "filesystem", "inputs", "codeurl"},
	}
	manifest, err := scibench.NewCampaignManifest("walkthrough", seed, config, nil, env)
	if err != nil {
		log.Fatal(err)
	}

	// measure builds the deterministic source: a fresh machine with the
	// recorded seed reproduces the exact latency stream, which is what
	// lets resume fast-forward and verify.
	measure := func() func() (float64, error) {
		m, err := scibench.NewCluster(scibench.PizDaint(), 2, seed)
		if err != nil {
			log.Fatal(err)
		}
		return func() (float64, error) {
			return float64(m.PingPong(0, 1, 64, 1)[0]) / float64(time.Microsecond), nil
		}
	}

	// --- 1. Interrupt a journaled campaign mid-collection. -------------
	dir := filepath.Join(base, "campaign")
	ctx, cancel := context.WithCancel(context.Background())
	calls, src := 0, measure()
	interruptible := func() (float64, error) {
		calls++
		if calls == 100 {
			cancel() // a stand-in for Ctrl-C / SIGTERM / a wall-clock budget
		}
		return src()
	}
	partial, err := scibench.RunCampaign(ctx, dir, manifest, plan, interruptible)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("interrupted: %d samples durable, stop = %q\n", len(partial.Raw), partial.Stop)

	// --- 2. Tear the journal like a crash mid-append would. ------------
	// The journal seals records in chunks of 64; cutting a few bytes off
	// the end leaves the last chunk failing its CRC, so replay drops it.
	_, whole, err := scibench.LoadCampaign(dir)
	if err != nil {
		log.Fatal(err)
	}
	j := filepath.Join(dir, "journal.jsonl")
	fi, err := os.Stat(j)
	if err != nil {
		log.Fatal(err)
	}
	if err := os.Truncate(j, fi.Size()-3); err != nil {
		log.Fatal(err)
	}
	_, torn, err := scibench.LoadCampaign(dir)
	if err != nil {
		log.Fatal(err)
	}
	lost := len(whole.Records) - len(torn.Records)
	fmt.Printf("crash simulated: last journal chunk cut short, %d of %d records lost\n",
		lost, len(whole.Records))

	// --- 3. A drifted setup is refused (Rule 9). -----------------------
	drifted := manifest
	drifted.Seed = seed + 1
	if _, info, err := scibench.ResumeCampaign(context.Background(), dir, drifted, plan,
		measure(), scibench.CampaignResumeOptions{}); errors.Is(err, scibench.ErrManifestDrift) {
		fmt.Printf("drifted resume refused with %d Rule 9 finding(s) — good\n", len(info.Findings))
	} else {
		log.Fatalf("drifted resume was not refused: %v", err)
	}

	// --- 4. Resume for real. -------------------------------------------
	resumed, info, err := scibench.ResumeCampaign(context.Background(), dir, manifest, plan,
		measure(), scibench.CampaignResumeOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resumed: %d prior samples recovered (torn tail dropped: %v), "+
		"%d invocations fast-forwarded, %d replayed samples verified, %d lost records re-measured\n",
		info.PriorSamples, info.Torn, info.FastForwarded, info.ReplayChecked, lost)
	fmt.Printf("final:   %s\n", resumed)

	// --- 5. Bit-identical to an uninterrupted run. ---------------------
	control, err := scibench.RunCampaign(context.Background(), filepath.Join(base, "control"),
		manifest, plan, measure())
	if err != nil {
		log.Fatal(err)
	}
	if len(control.Raw) != len(resumed.Raw) {
		log.Fatalf("sample counts differ: %d vs %d", len(control.Raw), len(resumed.Raw))
	}
	for i := range control.Raw {
		if math.Float64bits(control.Raw[i]) != math.Float64bits(resumed.Raw[i]) {
			log.Fatalf("sample %d differs: %v vs %v", i, control.Raw[i], resumed.Raw[i])
		}
	}
	fmt.Printf("verdict: all %d retained samples are bit-identical to the uninterrupted run\n",
		len(control.Raw))
}
