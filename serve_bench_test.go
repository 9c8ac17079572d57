// Benchmarks for the open-loop service workload (package serve): the
// simulation hot paths the benchgate tracks. BenchmarkHistogramRecord
// additionally asserts the 0 allocs/op contract the serve loop's
// memory-speed latency recording depends on.
package scibench_test

import (
	"testing"
	"time"

	scibench "repro"
)

// BenchmarkServePoisson simulates one open-loop Poisson epoch: ~2000
// arrivals scheduled, served, and recorded per iteration.
func BenchmarkServePoisson(b *testing.B) {
	var hist scibench.LogHistogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := scibench.RunServe(scibench.ServeOptions{
			Arrival: scibench.ArrivalConfig{Kind: "poisson", Rate: 2000},
			Server: scibench.ServeServerConfig{
				Servers: 2,
				Service: scibench.ServeServiceConfig{Mean: 500 * time.Microsecond, Sigma: 0.5},
			},
			Duration: time.Second,
			Seed:     uint64(i) + 1,
			Hist:     &hist,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Completed == 0 {
			b.Fatal("empty epoch")
		}
	}
}

// BenchmarkServeBatching exercises the batching dispatch path: full
// batches under saturation with deadline wakes in play.
func BenchmarkServeBatching(b *testing.B) {
	var hist scibench.LogHistogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := scibench.RunServe(scibench.ServeOptions{
			Arrival: scibench.ArrivalConfig{Kind: "onoff", Rate: 4000},
			Server: scibench.ServeServerConfig{
				QueueCap:   1024,
				BatchMax:   8,
				BatchDelay: time.Millisecond,
				Service:    scibench.ServeServiceConfig{Mean: time.Millisecond, Sigma: 0.3, PerItem: 50 * time.Microsecond},
			},
			Duration: time.Second,
			Seed:     uint64(i) + 1,
			Hist:     &hist,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Batches == 0 {
			b.Fatal("no batches dispatched")
		}
	}
}

// BenchmarkHistogramRecord measures the latency-recording hot path and
// enforces its zero-allocation contract.
func BenchmarkHistogramRecord(b *testing.B) {
	var h scibench.LogHistogram
	v := 123e-6
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Record(v)
		v += 1e-9
	}
	b.StopTimer()
	if h.Count() != uint64(b.N) {
		b.Fatalf("recorded %d of %d", h.Count(), b.N)
	}
	if allocs := testing.AllocsPerRun(1000, func() { h.Record(v) }); allocs != 0 {
		b.Fatalf("Record allocates %.1f per op, want 0", allocs)
	}
}
