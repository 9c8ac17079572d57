package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// spec is the part of ../BENCHMARK.json the benchmark must agree with.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// applies lists, per workload, the per-layer metrics its traced run
// must report as nonzero: the layers that workload exercises.
var applies = map[string][]string{
	"sweep_remote": {
		"cluster.busy_s", "cluster.calls", "cluster.messages", "bench.samples", "bench.analyses",
		"campaign.unit_s", "campaign.records", "campaign.fsyncs", "campaign.fsync_s",
		"campaign.journal_bytes", "campaign.bytes_per_record",
		"shard.supervise_s", "shard.merge_s", "shard.tail_s", "shard.executors_started",
		"remote.chunks", "remote.chunk_bytes", "remote.ship_amplification",
		"go.mallocs", "go.alloc_mb", "trace.overhead", "wall_s", "cpu_s", "calib_s", "peak_rss_mb",
	},
	"collectives": {
		"cluster.messages", "bench.samples", "bench.analyses", "bench.analysis_s", "bench.collect_s",
		"suite.configs", "suite.config_s", "suite.config_max_s", "suite.occupancy",
		"go.mallocs", "go.alloc_mb", "trace.overhead", "wall_s", "cpu_s", "calib_s", "peak_rss_mb",
	},
	"serve": {
		"bench.samples", "bench.analyses", "serve.requests", "serve.batches", "serve.mallocs_per_request",
		"go.mallocs", "go.alloc_mb", "trace.overhead", "wall_s", "cpu_s", "calib_s", "peak_rss_mb",
	},
}

// The self-tests run every workload at a tiny size.
func TestMain(m *testing.M) {
	size = sizes{units: 4, samples: 40, rounds: 2, ranks: []int{4, 8, 16, 32}, runs: 20, epoch: 250 * time.Millisecond}
	os.Exit(m.Run())
}

// runOnce runs one workload for the minimum number of iterations and
// decodes its result line.
func runOnce(t *testing.T, workload, trace string) (result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", workload, "--seed", "7", "--seconds", "0", "--trace", trace, "--root", t.TempDir()}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v", err)
	}
	return res, stderr.String()
}

// runTiny runs one workload and fails unless it passes its output check.
func runTiny(t *testing.T, workload, trace string) result {
	t.Helper()
	res, log := runOnce(t, workload, trace)
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("output check failed: correct=%v failed=%d attempted=%d\n%s",
			res.Correct, res.Failed, res.Attempted, log)
	}
	return res
}

// checkNames fails unless res prints exactly the metrics of want, with
// their units.
func checkNames(t *testing.T, res result, want []specMetric) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not printed", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
}

func TestSpecNamesWorkloads(t *testing.T) {
	var got, want []string
	for _, w := range loadSpec(t).Workloads {
		got = append(got, w.Name)
	}
	for _, w := range workloads {
		want = append(want, w.name)
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", got, want)
	}
}

// TestWorkloadsTiny runs every workload once untraced and once traced at
// the tiny size: each passes its output check, prints exactly the names
// BENCHMARK.json declares, and the traced run reports every layer the
// workload exercises.
func TestWorkloadsTiny(t *testing.T) {
	s := loadSpec(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			checkNames(t, runTiny(t, w.name, "0"), s.EndToEnd)
			traced := runTiny(t, w.name, "1")
			checkNames(t, traced, s.PerLayer)
			for _, name := range applies[w.name] {
				if traced.Metrics[name].Value <= 0 {
					t.Errorf("traced metric %s = %v, want > 0", name, traced.Metrics[name].Value)
				}
			}
		})
	}
}

// TestMismatchFails corrupts a workload's reference output: every
// iteration then fails its check, and the failures reach failed and
// fail_frac.
func TestMismatchFails(t *testing.T) {
	w := *lookupWorkload("collectives")
	w.name = "collectives_corrupt"
	w.reference = func(*bencher) ([]byte, error) { return []byte("corrupt"), nil }
	saved := workloads
	workloads = append(append([]*workload(nil), saved...), &w)
	t.Cleanup(func() { workloads = saved })

	res, _ := runOnce(t, w.name, "1")
	if res.Correct || res.Failed != res.Attempted || res.Metrics["fail_frac"].Value != 1 {
		t.Fatalf("corrupt reference: correct=%v failed=%d attempted=%d fail_frac=%v, want false, all, 1",
			res.Correct, res.Failed, res.Attempted, res.Metrics["fail_frac"].Value)
	}
}

func TestRejectsUnknownWorkload(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 {
		t.Fatal("unknown workload accepted")
	}
	if stdout.Len() != 0 {
		t.Fatalf("printed a result for an unknown workload: %q", stdout.String())
	}
}
