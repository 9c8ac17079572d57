package campaign

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench"
	"repro/internal/faults"
	"repro/internal/rules"
)

// measureFrom returns a deterministic seeded measure source with
// occasional fault-suspect spikes (every 7th draw), so campaigns
// exercise the retry/loss paths.
func measureFrom(seed uint64) func() (float64, error) {
	rng := rand.New(rand.NewPCG(seed, 42))
	n := 0
	return func() (float64, error) {
		n++
		v := 1 + rng.Float64()
		if n%7 == 0 {
			v += 10
		}
		return v, nil
	}
}

func testPlan() bench.Plan {
	return bench.Plan{
		Warmup:     2,
		MinSamples: 20,
		MaxSamples: 80,
		RelErr:     0.02,
		BatchSize:  5,
		Resilience: &bench.Resilience{ValueCeiling: 5, MaxRetries: 1, MaxLossFraction: 1},
	}
}

type testConfig struct {
	System  string `json:"system"`
	Samples int    `json:"samples"`
}

func testManifest(t *testing.T, seed uint64, cfg testConfig, sched *faults.Schedule) Manifest {
	t.Helper()
	m, err := NewManifest("test", seed, cfg, sched, rules.Environment{
		Processor: "simulated",
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// appendFile appends b to the file at path.
func appendFile(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCreateLoadOpenRoundtrip(t *testing.T) {
	dir := t.TempDir()
	m := testManifest(t, 1, testConfig{System: "quiet", Samples: 10}, nil)
	j, err := Create(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := j.Record(bench.Event{Kind: bench.EventSample, Value: float64(i), Calls: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(dir, m); !errors.Is(err, ErrCampaignExists) {
		t.Fatalf("second Create: err = %v, want ErrCampaignExists", err)
	}

	got, st, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.ConfigHash != m.ConfigHash || got.Seed != m.Seed {
		t.Errorf("manifest roundtrip mismatch: %+v vs %+v", got, m)
	}
	if len(st.Records) != 3 || st.Torn {
		t.Fatalf("replayed %d records (torn=%v), want 3 clean", len(st.Records), st.Torn)
	}
	if xs := st.Samples(); len(xs) != 3 || xs[2] != 3 {
		t.Errorf("samples = %v", xs)
	}

	if _, _, err := Load(t.TempDir()); !errors.Is(err, ErrNoCampaign) {
		t.Errorf("Load(empty) err = %v, want ErrNoCampaign", err)
	}
}

// TestInterruptResumeBitIdentical is the acceptance test: a journaled
// campaign killed by (a) context cancellation and (b) a simulated crash
// mid-append resumes to a final Result whose retained samples are
// bit-identical to an uninterrupted run with the same seed.
func TestInterruptResumeBitIdentical(t *testing.T) {
	const seed = 5
	cfg := testConfig{System: "quiet", Samples: 20}

	want, err := bench.RunErr(testPlan(), measureFrom(seed))
	if err != nil {
		t.Fatal(err)
	}

	for _, crash := range []bool{false, true} {
		name := "cancel"
		if crash {
			name = "crash-mid-append"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			m := testManifest(t, seed, cfg, nil)

			// Interrupt the campaign partway by cancelling from inside
			// the measure source after 31 invocations.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			inner := measureFrom(seed)
			calls := 0
			res, err := Run(ctx, dir, m, testPlan(), func() (float64, error) {
				if calls++; calls == 31 {
					cancel()
				}
				return inner()
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Stop != bench.StopInterrupted {
				t.Fatalf("Stop = %q, want interrupted", res.Stop)
			}

			if crash {
				// Simulate dying mid-seal: leave half a chunk at the
				// journal tail.
				appendFile(t, filepath.Join(dir, JournalFile), tornChunk())
			}

			got, info, err := Resume(context.Background(), dir, m, testPlan(),
				measureFrom(seed), ResumeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if crash != info.Torn {
				t.Errorf("Torn = %v, want %v", info.Torn, crash)
			}
			if info.PriorSamples == 0 || info.FastForwarded == 0 {
				t.Errorf("nothing recovered: %+v", info)
			}
			if info.ReplayChecked == 0 || info.ReplayMismatched != 0 {
				t.Errorf("replay verification: %+v", info)
			}
			if got.Stop != want.Stop || len(got.Raw) != len(want.Raw) {
				t.Fatalf("resumed stop=%q n=%d, uninterrupted stop=%q n=%d",
					got.Stop, len(got.Raw), want.Stop, len(want.Raw))
			}
			for i := range got.Raw {
				if math.Float64bits(got.Raw[i]) != math.Float64bits(want.Raw[i]) {
					t.Fatalf("sample %d diverged: %v vs %v", i, got.Raw[i], want.Raw[i])
				}
			}
			// The journal now holds the complete campaign: a second
			// replay reconstructs every retained sample.
			_, st, err := Load(dir)
			if err != nil {
				t.Fatal(err)
			}
			if xs := st.Samples(); len(xs) != len(want.Raw) {
				t.Errorf("final journal has %d samples, want %d", len(xs), len(want.Raw))
			}
		})
	}
}

func TestResumeRefusesManifestDrift(t *testing.T) {
	const seed = 5
	dir := t.TempDir()
	m := testManifest(t, seed, testConfig{System: "quiet", Samples: 20}, nil)
	ctx, cancel := context.WithCancel(context.Background())
	inner := measureFrom(seed)
	calls := 0
	if _, err := Run(ctx, dir, m, testPlan(), func() (float64, error) {
		if calls++; calls == 10 {
			cancel()
		}
		return inner()
	}); err != nil && !errors.Is(err, bench.ErrTooFewSamples) {
		t.Fatal(err)
	}
	cancel()

	cases := map[string]Manifest{
		"config": testManifest(t, seed, testConfig{System: "quiet", Samples: 500}, nil),
		"seed":   testManifest(t, seed+1, testConfig{System: "quiet", Samples: 20}, nil),
		"faults": testManifest(t, seed, testConfig{System: "quiet", Samples: 20},
			&faults.Schedule{Stragglers: []faults.Straggler{{Node: 0, Factor: 2}}}),
	}
	// Tear the journal tail: a refused resume must not repair (or touch)
	// the journal — the torn record is evidence of how the campaign died.
	jpath := filepath.Join(dir, JournalFile)
	appendFile(t, jpath, tornChunk())
	before, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}

	for name, drifted := range cases {
		_, info, err := Resume(context.Background(), dir, drifted, testPlan(),
			measureFrom(seed), ResumeOptions{})
		if !errors.Is(err, ErrManifestDrift) {
			t.Fatalf("%s drift: err = %v, want ErrManifestDrift", name, err)
		}
		if len(info.Findings) == 0 || info.Findings[0].Rule != 9 ||
			info.Findings[0].Severity != rules.Violation {
			t.Errorf("%s drift: findings = %v, want a Rule 9 violation", name, info.Findings)
		}
		if !info.Torn {
			t.Errorf("%s drift: refusal did not report the torn tail", name)
		}
	}
	after, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("refused resume modified the journal")
	}
}

func TestResumeRefusesReplayDivergence(t *testing.T) {
	const seed = 5
	dir := t.TempDir()
	m := testManifest(t, seed, testConfig{System: "quiet"}, nil)
	ctx, cancel := context.WithCancel(context.Background())
	inner := measureFrom(seed)
	calls := 0
	if _, err := Run(ctx, dir, m, testPlan(), func() (float64, error) {
		if calls++; calls == 25 {
			cancel()
		}
		return inner()
	}); err != nil {
		t.Fatal(err)
	}
	cancel()

	// Same manifest, but the measure source secretly drifted (different
	// seed): the replay verification must catch it.
	_, info, err := Resume(context.Background(), dir, m, testPlan(),
		measureFrom(seed+1), ResumeOptions{})
	if !errors.Is(err, ErrReplayDivergence) {
		t.Fatalf("err = %v, want ErrReplayDivergence", err)
	}
	if info.ReplayMismatched == 0 {
		t.Errorf("no mismatches recorded: %+v", info)
	}
}

func TestBoundaryShift(t *testing.T) {
	flat := make([]float64, 60)
	shifted := make([]float64, 60)
	rng := rand.New(rand.NewPCG(3, 3))
	for i := range flat {
		flat[i] = 1 + 0.01*rng.Float64()
		shifted[i] = flat[i]
		if i >= 30 {
			shifted[i] += 5
		}
	}
	if _, drift, err := BoundaryShift(flat, 30, boundaryAlpha); err != nil || drift {
		t.Errorf("flat stream: drift=%v err=%v", drift, err)
	}
	cp, drift, err := BoundaryShift(shifted, 30, boundaryAlpha)
	if err != nil || !drift {
		t.Errorf("shifted-at-boundary: drift=%v err=%v cp=%+v", drift, err, cp)
	}
	// Same shift but the boundary is far away: significant, not drift.
	_, drift, err = BoundaryShift(shifted, 5, boundaryAlpha)
	if err != nil || drift {
		t.Errorf("shift far from boundary: drift=%v err=%v", drift, err)
	}
}

func TestCheckResumeFormatVersion(t *testing.T) {
	a := Manifest{Version: FormatVersion}
	b := Manifest{Version: FormatVersion + 1}
	if _, err := CheckResume(a, b); !errors.Is(err, ErrManifestDrift) {
		t.Errorf("version drift not refused: %v", err)
	}
}
