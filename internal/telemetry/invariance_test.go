package telemetry_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/rules"
	"repro/internal/suite"
	"repro/internal/telemetry"
)

// The hard invariant of the telemetry layer, enforced here end to end:
// metrics and spans observe the harness but never steer it, so every
// byte of report, progress stream, journal, and analyzed result is
// identical with telemetry off, with it on, and across worker counts.

func identConfig(workers int) suite.Config {
	return suite.Config{
		Cluster:     cluster.PizDaint(),
		Collectives: []string{suite.Reduce, suite.Bcast},
		Ranks:       []int{2, 4},
		Bytes:       []int{8},
		MinRuns:     8,
		MaxRuns:     24,
		RelErr:      0.2,
		Seed:        7,
		Workers:     workers,
	}
}

func runSuiteBytes(t *testing.T, workers int) (report, progress []byte) {
	t.Helper()
	var prog bytes.Buffer
	res, err := suite.Run(context.Background(), identConfig(workers), &prog)
	if err != nil {
		t.Fatal(err)
	}
	var rep bytes.Buffer
	if err := res.WriteReport(&rep); err != nil {
		t.Fatal(err)
	}
	return rep.Bytes(), prog.Bytes()
}

func TestTelemetryPreservesSuiteBitIdentity(t *testing.T) {
	telemetry.Disable()
	baseRep, baseProg := runSuiteBytes(t, 1)

	var sink bytes.Buffer
	bw := telemetry.NewBinaryTraceWriter(&sink)
	telemetry.EnableSink(bw)
	defer telemetry.Disable()
	for _, workers := range []int{1, 3} {
		rep, prog := runSuiteBytes(t, workers)
		if !bytes.Equal(rep, baseRep) {
			t.Errorf("telemetry on, workers=%d: report bytes diverged", workers)
		}
		if !bytes.Equal(prog, baseProg) {
			t.Errorf("telemetry on, workers=%d: progress bytes diverged", workers)
		}
	}
	// The comparison must not be vacuous: tracing really was live.
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if spans, _ := telemetry.ReadBinaryTrace(sink.Bytes()); len(spans) == 0 {
		t.Fatal("enabled tracer emitted no spans during the sweep")
	}
}

// identMeasure is a deterministic seeded measure source; every run from
// the same seed produces the same stream, so run/resume and on/off pairs
// are comparable byte for byte.
func identMeasure(seed uint64, interruptAt int, cancel context.CancelFunc) func() (float64, error) {
	rng := rand.New(rand.NewPCG(seed, 99))
	n := 0
	return func() (float64, error) {
		n++
		if interruptAt > 0 && n == interruptAt {
			cancel()
		}
		return 1 + rng.Float64(), nil
	}
}

func identPlan() bench.Plan {
	return bench.Plan{
		Warmup:     2,
		MinSamples: 15,
		MaxSamples: 40,
		RelErr:     0.001, // strict: the adaptive loop runs to MaxSamples
		BatchSize:  5,
	}
}

func identManifest(t *testing.T) campaign.Manifest {
	t.Helper()
	m, err := campaign.NewManifest("ident", 1,
		struct {
			System string `json:"system"`
		}{System: "seeded"},
		nil, rules.Environment{Processor: "simulated"})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// runInterruptedCampaign runs a campaign that cancels itself after
// interruptAt measure calls, then resumes it to completion, returning
// the final journal bytes and the analyzed result rendered to a string
// (NaN-safe, unlike reflect.DeepEqual).
func runInterruptedCampaign(t *testing.T, interruptAt int) ([]byte, string) {
	t.Helper()
	dir := t.TempDir()
	man := identManifest(t)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := campaign.Run(ctx, dir, man, identPlan(), identMeasure(1, interruptAt, cancel))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stop != bench.StopInterrupted {
		t.Fatalf("stop = %v, want interrupted (tune interruptAt=%d)", res.Stop, interruptAt)
	}

	res, _, err = campaign.Resume(context.Background(), dir, man, identPlan(),
		identMeasure(1, 0, nil), campaign.ResumeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	jb, err := os.ReadFile(filepath.Join(dir, campaign.JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	return jb, fmt.Sprintf("%+v", res)
}

func TestTelemetryPreservesCampaignBitIdentity(t *testing.T) {
	const interruptAt = 20

	telemetry.Disable()
	baseJournal, baseResult := runInterruptedCampaign(t, interruptAt)

	var sink bytes.Buffer
	bw := telemetry.NewBinaryTraceWriter(&sink)
	telemetry.EnableSink(bw)
	defer telemetry.Disable()
	journal, result := runInterruptedCampaign(t, interruptAt)

	if !bytes.Equal(journal, baseJournal) {
		t.Error("telemetry changed the journal bytes of an interrupted+resumed campaign")
	}
	if result != baseResult {
		t.Errorf("telemetry changed the analyzed result:\noff: %s\non:  %s", baseResult, result)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if spans, _ := telemetry.ReadBinaryTrace(sink.Bytes()); len(spans) == 0 {
		t.Fatal("enabled tracer emitted no spans during the campaign")
	}
}

// TestTelemetrySmoke is the end-to-end check `make telemetry-smoke`
// runs: generate real harness activity, serve the endpoint, scrape it,
// and assert the advertised metric names and routes are live.
func TestTelemetrySmoke(t *testing.T) {
	telemetry.EnableSink(nil)
	defer telemetry.Disable()

	// The occupancy bound below is about this sweep alone; earlier tests
	// in the binary ran sweeps with more workers into the same
	// process-wide histogram.
	telemetry.Default().Histogram("suite.occupancy").Reset()

	// Generate activity through every instrumented layer: a sweep
	// (suite → bench → cluster) and a journaled campaign (fsync path).
	if _, err := suite.Run(context.Background(), identConfig(2), io.Discard); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := campaign.Run(context.Background(), dir, identManifest(t),
		identPlan(), identMeasure(1, 0, nil)); err != nil {
		t.Fatal(err)
	}

	srv, err := telemetry.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	var snap telemetry.Snapshot
	getJSON(t, base+"/metrics", &snap)
	for _, name := range []string{"bench.samples", "bench.warmups", "suite.configs", "campaign.records", "cluster.messages"} {
		if snap.Counters[name] <= 0 {
			t.Errorf("counter %q = %d, want > 0", name, snap.Counters[name])
		}
	}
	for _, name := range []string{"suite.occupancy", "suite.config_us", "campaign.fsync_us", "bench.analysis_us"} {
		if snap.Histograms[name].Count <= 0 {
			t.Errorf("histogram %q empty", name)
		}
	}
	if _, ok := snap.Gauges["suite.workers_active"]; !ok {
		t.Error("gauge suite.workers_active not registered")
	}
	if occ := snap.Histograms["suite.occupancy"]; occ.Max > 2 {
		t.Errorf("occupancy max = %g with 2 workers", occ.Max)
	}

	var spans []telemetry.Span
	getJSON(t, base+"/trace", &spans)
	if len(spans) == 0 {
		t.Fatal("/trace returned no spans")
	}
	names := map[string]bool{}
	for _, sp := range spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"campaign", "sweep", "config", "collection", "analysis"} {
		if !names[want] {
			t.Errorf("trace lacks a %q span (have %v)", want, names)
		}
	}

	resp, err := http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/ status = %d", resp.StatusCode)
	}
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}
