package shard

import (
	"testing"
	"time"
)

// TestReassignBackoffSeeded: reassignment jitter is a pure function of
// (seed, shard, attempt) — the same campaign seed replays the same
// supervision schedule, different seeds decorrelate.
func TestReassignBackoffSeeded(t *testing.T) {
	opt := Options{Backoff: 100 * time.Millisecond, Seed: 42}
	a := ReassignBackoff(opt, 3, 2)
	if b := ReassignBackoff(opt, 3, 2); b != a {
		t.Fatalf("same inputs, different backoff: %s vs %s", a, b)
	}
	if a < 100*time.Millisecond || a >= 150*time.Millisecond {
		t.Errorf("attempt-2 backoff %s outside [base, 1.5·base)", a)
	}
	if c := ReassignBackoff(opt, 3, 3); c < 200*time.Millisecond || c >= 300*time.Millisecond {
		t.Errorf("attempt-3 backoff %s did not double the base before jitter", c)
	}
	other := opt
	other.Seed = 43
	diff := false
	for shard := 0; shard < 8 && !diff; shard++ {
		diff = ReassignBackoff(opt, shard, 2) != ReassignBackoff(other, shard, 2)
	}
	if !diff {
		t.Error("eight shards, two seeds, identical jitter everywhere — backoff is not seeded")
	}
}

// TestReassignBackoffSaturates: a large Retries budget reaches attempts
// whose doubled base would overflow; the delay must stay positive and
// saturate at the ceiling (plus at most half of it in jitter).
func TestReassignBackoffSaturates(t *testing.T) {
	opt := Options{Seed: 42}
	for attempt := 2; attempt <= 100; attempt++ {
		d := ReassignBackoff(opt, 1, attempt)
		if d <= 0 || d > maxReassignBackoff*3/2 {
			t.Fatalf("attempt %d: backoff %s outside (0, 1.5×%s]", attempt, d, maxReassignBackoff)
		}
	}
}
