package serve_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/suite"
)

// goldenServeSHA256 is the digest of every serve.Run result and the
// stalled sweep artifact of TestServeGoldenBytes. It pins the exact
// simulated event order: any engine or server change that reorders a
// single arrival, completion or wake moves a latency and so this hash.
const goldenServeSHA256 = "d73dfc303f590cd587946883f67c516b19ce5220d60077126c720caec01e4498"

// goldenServers is the server half of the golden matrix: parallel
// lognormal service, a single deterministic server (many same-instant
// ties), size/deadline batching with queue drops, a bounded queue
// under stalls, and full deterministic batches.
var goldenServers = []serve.ServerConfig{
	{Servers: 2, Service: serve.ServiceConfig{Mean: time.Millisecond, Sigma: 0.5}},
	{Servers: 1, Service: serve.ServiceConfig{Mean: time.Millisecond}},
	{
		QueueCap: 16, BatchMax: 4, BatchDelay: 2 * time.Millisecond,
		Service: serve.ServiceConfig{Mean: time.Millisecond, Sigma: 0.3, PerItem: 100 * time.Microsecond},
	},
	{
		Servers: 2, QueueCap: 32,
		Service: serve.ServiceConfig{Mean: time.Millisecond, Sigma: 0.5},
		Stalls:  []serve.Stall{{At: 200 * time.Millisecond, Dur: 150 * time.Millisecond}, {At: 600 * time.Millisecond, Dur: 100 * time.Millisecond}},
	},
	{BatchMax: 8, Service: serve.ServiceConfig{Mean: 2 * time.Millisecond, PerItem: 50 * time.Microsecond}},
}

var goldenArrivals = []serve.ArrivalConfig{
	{Kind: serve.Poisson},
	{Kind: serve.Diurnal, Periods: []serve.DiurnalPeriod{{Period: time.Second, Amplitude: 0.6}, {Period: 200 * time.Millisecond, Amplitude: 0.25}}},
	{Kind: serve.OnOff},
}

// hashResult writes every field of r, floats as their bit patterns, so
// the digest is exact rather than formatting-dependent.
func hashResult(h hash.Hash, r serve.Result) {
	bits := func(f float64) uint64 { return math.Float64bits(f) }
	fmt.Fprintf(h, "%s off=%d done=%d drop=%d batches=%d mean=%x tput=%x offrate=%x max=%d end=%d\n",
		r.Mode, r.Offered, r.Completed, r.Dropped, r.Batches, bits(r.MeanBatch), bits(r.Throughput),
		bits(r.OfferedRate), r.MaxLatency, r.End)
	hs := r.Hist
	fmt.Fprintf(h, "hist n=%d sum=%x min=%x max=%x", hs.Count(), bits(hs.Sum()), bits(hs.Min()), bits(hs.Max()))
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		fmt.Fprintf(h, " q%g=%x", q, bits(hs.Quantile(q)))
	}
	fmt.Fprintln(h)
}

// TestServeGoldenBytes pins serve.Run's output byte for byte over a
// 90-configuration matrix (3 arrival kinds × 5 server shapes × 3 rates
// × open/closed loop) plus one stalled suite.RunServe JSON artifact.
// Performance work on the event core or the simulated server must leave
// this digest unchanged.
func TestServeGoldenBytes(t *testing.T) {
	h := sha256.New()
	configs := 0
	for ai, arr := range goldenArrivals {
		for si, srv := range goldenServers {
			for ri, rate := range []float64{400, 1500, 3000} {
				for _, mode := range []serve.LoopMode{serve.OpenLoop, serve.ClosedLoop} {
					a := arr
					a.Rate = rate
					o := serve.Options{
						Arrival:  a,
						Server:   srv,
						Duration: time.Second,
						Seed:     uint64(1000*ai + 100*si + 10*ri + 1),
						Mode:     mode,
					}
					if mode == serve.ClosedLoop {
						o.Clients = 3
					}
					res, err := serve.Run(o)
					if err != nil {
						t.Fatalf("%s/%d/%g/%s: %v", arr.Kind, si, rate, mode, err)
					}
					if res.Offered != res.Completed+res.Dropped {
						t.Fatalf("%s/%d/%g/%s: conservation: %+v", arr.Kind, si, rate, mode, res)
					}
					fmt.Fprintf(h, "%s/%d/%g/%s ", arr.Kind, si, rate, mode)
					hashResult(h, res)
					configs++
				}
			}
		}
	}
	if configs != 90 {
		t.Fatalf("matrix has %d configurations, want 90", configs)
	}

	sweep, err := suite.RunServe(context.Background(), suite.ServeConfig{
		Arrival: serve.ArrivalConfig{Kind: serve.Poisson},
		Server: serve.ServerConfig{
			Servers: 2,
			Service: serve.ServiceConfig{Mean: 2 * time.Millisecond},
			Stalls:  []serve.Stall{{At: 200 * time.Millisecond, Dur: 300 * time.Millisecond}},
		},
		Loads:    []float64{0.3, 0.9},
		Duration: time.Second,
		Seed:     77,
		Workers:  1,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sweep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	h.Write(buf.Bytes())

	if got := hex.EncodeToString(h.Sum(nil)); got != goldenServeSHA256 {
		t.Fatalf("serve output digest = %s, want %s", got, goldenServeSHA256)
	}
}
