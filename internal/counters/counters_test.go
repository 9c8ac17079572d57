package counters

import (
	"strings"
	"testing"
)

var sink []byte

func allocate1MB() {
	sink = make([]byte, 1<<20)
	for i := 0; i < len(sink); i += 4096 {
		sink[i] = 1
	}
}

func TestMeasureCapturesAllocations(t *testing.T) {
	d := Measure(allocate1MB)
	if d.AllocBytes < 1<<20 {
		t.Errorf("allocated %d B, want >= 1 MiB", d.AllocBytes)
	}
	if d.Mallocs < 1 {
		t.Errorf("mallocs = %d", d.Mallocs)
	}
	if d.Elapsed <= 0 {
		t.Errorf("elapsed = %v", d.Elapsed)
	}
	if !strings.Contains(d.String(), "allocated") {
		t.Error("String rendering")
	}
}

func TestMeasureNoAllocWork(t *testing.T) {
	x := 0
	d := Measure(func() {
		for i := 0; i < 1000; i++ {
			x += i
		}
	})
	_ = x
	// A pure-compute region allocates (nearly) nothing.
	if d.AllocBytes > 1<<16 {
		t.Errorf("unexpected allocations: %d B", d.AllocBytes)
	}
}

func TestSeriesAndDeterminism(t *testing.T) {
	ds := Series(5, allocate1MB)
	if len(ds) != 5 {
		t.Fatalf("series = %d", len(ds))
	}
	// The byte count of an identical allocation is deterministic (within
	// runtime background noise) even though its duration is not — the
	// paper's §3.1.1 cost/time distinction.
	if !AllocsDeterministic(ds, 1<<16) {
		t.Error("allocation byte counts varied beyond tolerance across identical runs")
	}
	rates := AllocRates(ds)
	for _, r := range rates {
		if r <= 0 {
			t.Errorf("rates = %v", rates)
			break
		}
	}
}

func TestAllocsDeterministicEdge(t *testing.T) {
	if AllocsDeterministic(nil, 0) {
		t.Error("empty series cannot be deterministic")
	}
	one := []Delta{{AllocBytes: 5}}
	if !AllocsDeterministic(one, 0) {
		t.Error("single delta is trivially deterministic")
	}
	two := []Delta{{AllocBytes: 5}, {AllocBytes: 600}}
	if AllocsDeterministic(two, 10) {
		t.Error("differing deltas flagged deterministic")
	}
	if !AllocsDeterministic(two, 1000) {
		t.Error("within-tolerance deltas flagged nondeterministic")
	}
	// Tolerance works in both directions.
	down := []Delta{{AllocBytes: 600}, {AllocBytes: 5}}
	if AllocsDeterministic(down, 10) {
		t.Error("descending difference not caught")
	}
}

func TestSubArithmetic(t *testing.T) {
	before := Snapshot{AllocBytes: 100, Mallocs: 10, GCCycles: 1, GCPause: 5}
	after := Snapshot{AllocBytes: 350, Mallocs: 17, GCCycles: 3, GCPause: 11}
	d := Sub(before, after, 42)
	if d.AllocBytes != 250 || d.Mallocs != 7 || d.GCCycles != 2 || d.GCPause != 6 || d.Elapsed != 42 {
		t.Errorf("delta = %+v", d)
	}
}
