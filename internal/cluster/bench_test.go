package cluster_test

import (
	"testing"
	"time"

	"repro/internal/cluster"
)

var sinkRounds []time.Duration

// BenchmarkPingPong times one fault-free 2048-round exchange on Piz
// Daint, the observation a latency sweep repeats: ranks 0 and 1 share a
// node (the intra-node path a two-rank sweep takes), ranks 0 and 63 do
// not (hop, tail and bandwidth terms). Both endpoints host a daemon.
func BenchmarkPingPong(b *testing.B) {
	for _, c := range []struct {
		name string
		peer int
	}{{"intra", 1}, {"inter", 63}} {
		b.Run(c.name, func(b *testing.B) {
			m, err := cluster.New(cluster.PizDaint(), 64, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkRounds = m.PingPong(0, c.peer, 64, 2048)
			}
		})
	}
}
