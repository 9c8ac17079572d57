package htest

import (
	"errors"
	"math"
	"testing"
	"time"
)

// TestRankTestsRejectNaN feeds every rank test one NaN observation. The
// mid-rank tie scan once spun forever on it (NaN != NaN), so each call
// runs under a deadline, and each must fail with ErrNonFinite rather
// than rank the NaN somewhere.
func TestRankTestsRejectNaN(t *testing.T) {
	xs := normalSample(20, 10, 1, 3)
	xs[7] = math.NaN()
	ys := normalSample(20, 10, 1, 4)
	for name, run := range map[string]func() error{
		"Pettitt":       func() error { _, err := Pettitt(xs); return err },
		"KruskalWallis": func() error { _, err := KruskalWallis(ys, xs); return err },
		"MannWhitney":   func() error { _, err := MannWhitney(ys, xs); return err },
	} {
		done := make(chan error, 1)
		go func() { done <- run() }()
		select {
		case err := <-done:
			if !errors.Is(err, ErrNonFinite) {
				t.Errorf("%s: err = %v, want ErrNonFinite", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("%s did not return within 5 s", name)
		}
	}
}
