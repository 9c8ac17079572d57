package workloads

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro/internal/cluster"
)

// TestHPLSeriesGoldenDigest pins HPLSeries byte for byte on a small
// Fig 1-style configuration: a noisy Piz Daint grid with the per-run
// allocation spread and congestion skew of Figure 1. The digest covers
// every run's completion time and credited flops, so a change to the
// panel pipeline's ordering, its noise draws or the machine-time advance
// between runs moves it.
func TestHPLSeriesGoldenDigest(t *testing.T) {
	const want = "36a1f77e4f3ee790acb973b6168cbb648b5b0becf69ad4898dd271aa7b556768"
	cfg := HPLConfig{N: 2048, NB: 64, P: 4, Q: 4, RunSigma: 0.025, RunSkew: 0.045}
	m, err := cluster.New(cluster.PizDaint(), cfg.Ranks(), 20151115)
	if err != nil {
		t.Fatal(err)
	}
	times, results, err := HPLSeries(m, cfg, 24)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for i, r := range results {
		fmt.Fprintf(h, "%d %d %x %x\n", i, r.Completion, math.Float64bits(r.Flops), math.Float64bits(times[i]))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("HPLSeries digest = %s, want %s", got, want)
	}
}
