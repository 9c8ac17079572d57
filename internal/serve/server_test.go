package serve

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/stats"
)

func TestRunDeterministic(t *testing.T) {
	// A Run is a pure function of Options: two invocations must agree on
	// every field, including the float sum inside the histogram (the
	// single-threaded event order is fixed, so even addition order is
	// reproduced bit-for-bit).
	o := Options{
		Arrival: ArrivalConfig{Kind: OnOff, Rate: 800},
		Server: ServerConfig{
			Servers:    2,
			QueueCap:   64,
			BatchMax:   4,
			BatchDelay: 2 * time.Millisecond,
			Service:    ServiceConfig{Mean: 3 * time.Millisecond, Sigma: 0.6, PerItem: 100 * time.Microsecond},
		},
		Duration: 4 * time.Second,
		Seed:     99,
	}
	a, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same options, different results:\n%+v\nvs\n%+v", a, b)
	}
	if a.Completed == 0 || a.Batches == 0 {
		t.Fatalf("degenerate run: %+v", a)
	}
	if a.Offered != a.Completed+a.Dropped {
		t.Fatalf("conservation: offered %d != completed %d + dropped %d", a.Offered, a.Completed, a.Dropped)
	}
	if got := uint64(a.Completed); a.Hist.Count() != got {
		t.Fatalf("histogram holds %d records, completed %d", a.Hist.Count(), got)
	}
}

func TestBoundedQueueDrops(t *testing.T) {
	// Offered load at 10× capacity with a 4-deep queue must shed most of
	// the traffic — and account for every request.
	res, err := Run(Options{
		Arrival:  ArrivalConfig{Rate: 2000},
		Server:   ServerConfig{QueueCap: 4, Service: ServiceConfig{Mean: 5 * time.Millisecond}},
		Duration: 2 * time.Second,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped == 0 {
		t.Fatalf("overloaded bounded queue dropped nothing: %+v", res)
	}
	if res.Offered != res.Completed+res.Dropped {
		t.Fatalf("conservation: %d != %d + %d", res.Offered, res.Completed, res.Dropped)
	}
	// Unbounded queue on the same schedule drops nothing.
	res2, err := Run(Options{
		Arrival:  ArrivalConfig{Rate: 2000},
		Server:   ServerConfig{Service: ServiceConfig{Mean: 5 * time.Millisecond}},
		Duration: 2 * time.Second,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Dropped != 0 || res2.Completed != res2.Offered {
		t.Fatalf("unbounded queue dropped: %+v", res2)
	}
}

func TestBatchingFillsBatches(t *testing.T) {
	// High arrival rate with size-8 batches and a deadline: batches must
	// actually fill (mean well above 1), and batching must beat
	// single-dispatch throughput on the identical schedule when per-item
	// cost is low.
	base := Options{
		Arrival:  ArrivalConfig{Rate: 5000},
		Duration: 2 * time.Second,
		Seed:     21,
	}
	batched := base
	batched.Server = ServerConfig{
		BatchMax:   8,
		BatchDelay: time.Millisecond,
		Service:    ServiceConfig{Mean: time.Millisecond, PerItem: 20 * time.Microsecond},
	}
	rb, err := Run(batched)
	if err != nil {
		t.Fatal(err)
	}
	if rb.MeanBatch < 2 {
		t.Fatalf("mean batch %.2f, want ≥2 under saturation", rb.MeanBatch)
	}
	if rb.Batches == 0 || float64(rb.Completed)/float64(rb.Batches) != rb.MeanBatch {
		t.Fatalf("batch accounting: completed %d batches %d mean %.3f", rb.Completed, rb.Batches, rb.MeanBatch)
	}
	single := base
	single.Server = ServerConfig{Service: ServiceConfig{Mean: time.Millisecond}}
	rs, err := Run(single)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Throughput <= rs.Throughput {
		t.Fatalf("batching did not raise throughput: %.0f vs %.0f req/s", rb.Throughput, rs.Throughput)
	}
}

func TestBatchDelayDispatchesPartialBatch(t *testing.T) {
	// A trickle that never fills BatchMax must still be served once the
	// oldest request has waited BatchDelay — not starve forever.
	res, err := Run(Options{
		Arrival:  ArrivalConfig{Rate: 10},
		Server:   ServerConfig{BatchMax: 64, BatchDelay: 50 * time.Millisecond, Service: ServiceConfig{Mean: time.Millisecond}},
		Duration: 2 * time.Second,
		Seed:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != res.Offered || res.Completed == 0 {
		t.Fatalf("partial batches starved: %+v", res)
	}
	// Every latency carries the deadline wait, bounded by
	// BatchDelay + service + slack.
	if res.MaxLatency > 150*time.Millisecond {
		t.Fatalf("max latency %v exceeds deadline+service bound", res.MaxLatency)
	}
}

func TestClosedLoop(t *testing.T) {
	res, err := Run(Options{
		Arrival:  ArrivalConfig{Rate: 1000},
		Server:   ServerConfig{Servers: 2, Service: ServiceConfig{Mean: time.Millisecond}},
		Duration: time.Second,
		Seed:     8,
		Mode:     ClosedLoop,
		Clients:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ClosedLoop || res.Completed == 0 {
		t.Fatalf("closed loop did not run: %+v", res)
	}
	if res.Offered != res.Completed+res.Dropped {
		t.Fatalf("conservation: %+v", res)
	}
	// 4 clients on 2 servers with deterministic 1 ms service: each
	// completion latency is wait+service ≈ 2 ms, ~2000 completions/s.
	if res.Completed < 1500 || res.Completed > 2500 {
		t.Fatalf("closed-loop completions %d, want ≈2000", res.Completed)
	}
}

func TestServiceDrawIsPerRequest(t *testing.T) {
	// Request i's service cost must depend only on (seed, i) — never on
	// execution order or server topology — so a request costs the same
	// whether it is served open-loop, closed-loop, batched, or last.
	s1 := &sim{cfg: ServerConfig{Service: ServiceConfig{Mean: 2 * time.Millisecond, Sigma: 0.8}}, seed: 31}
	s2 := &sim{cfg: ServerConfig{Servers: 8, Service: ServiceConfig{Mean: 2 * time.Millisecond, Sigma: 0.8}}, seed: 31}
	for i := 0; i < 1000; i++ {
		if a, b := s1.serviceDraw(i), s2.serviceDraw(i); a != b {
			t.Fatalf("request %d draw differs across configs: %v vs %v", i, a, b)
		}
	}
	if s1.serviceDraw(0) == s1.serviceDraw(1) {
		t.Fatalf("distinct requests share a service draw")
	}
}

func TestRunErrors(t *testing.T) {
	base := Options{Arrival: ArrivalConfig{Rate: 100}, Duration: time.Second}
	for name, mutate := range map[string]func(*Options){
		"zero duration": func(o *Options) { o.Duration = 0 },
		"bad mode":      func(o *Options) { o.Mode = "half-open" },
		"bad arrivals":  func(o *Options) { o.Arrival.Rate = -1 },
		"neg servers":   func(o *Options) { o.Server.Servers = -1 },
		"neg service":   func(o *Options) { o.Server.Service.Mean = -time.Second },
		"neg sigma":     func(o *Options) { o.Server.Service.Sigma = -0.5 },
		"NaN sigma":     func(o *Options) { o.Server.Service.Sigma = math.NaN() },
		"Inf sigma":     func(o *Options) { o.Server.Service.Sigma = math.Inf(1) },
		"stall overlap": func(o *Options) {
			o.Server.Stalls = []Stall{{At: time.Second, Dur: time.Second}, {At: 0, Dur: time.Second}}
		},
		"zero-dur stall": func(o *Options) { o.Server.Stalls = []Stall{{At: 0, Dur: 0}} },
	} {
		o := base
		mutate(&o)
		if _, err := Run(o); err == nil {
			t.Errorf("%s: Run accepted invalid options", name)
		} else if !errors.Is(err, ErrBadServer) && !errors.Is(err, ErrBadArrivals) {
			t.Errorf("%s: err = %v, want ErrBadServer/ErrBadArrivals", name, err)
		}
	}
}

func TestHistReuse(t *testing.T) {
	o := Options{
		Arrival:  ArrivalConfig{Rate: 300},
		Server:   ServerConfig{Service: ServiceConfig{Mean: time.Millisecond}},
		Duration: time.Second,
		Seed:     2,
	}
	fresh, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	reused := fresh.Hist // pass the same histogram back in
	o.Seed = 3
	second, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	_ = second
	o.Hist = reused
	third, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if third.Hist != reused {
		t.Fatalf("supplied histogram was not used")
	}
	if third.Hist.Count() != uint64(third.Completed) {
		t.Fatalf("reused histogram not reset: %d records for %d completions",
			third.Hist.Count(), third.Completed)
	}
	if math.IsNaN(third.Hist.Quantile(0.5)) {
		t.Fatalf("reused histogram empty after run")
	}
}

func TestRunAllocsIndependentOfRequests(t *testing.T) {
	// An open-loop epoch with a reused histogram allocates a fixed set of
	// per-epoch structures (calendar, request queue, per-server handlers
	// and buffers) and nothing per request: quadrupling the epoch — and
	// so the request count — must leave the allocation count where it
	// was.
	var hist stats.LogHistogram
	allocs := func(d time.Duration) (float64, int) {
		o := Options{
			Arrival:  ArrivalConfig{Kind: Poisson, Rate: 2000},
			Server:   ServerConfig{Servers: 2, Service: ServiceConfig{Mean: 500 * time.Microsecond, Sigma: 0.5}},
			Duration: d,
			Seed:     5,
			Hist:     &hist,
		}
		res, err := Run(o)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() { Run(o) }), res.Offered
	}
	a1, n1 := allocs(time.Second)
	a4, n4 := allocs(4 * time.Second)
	t.Logf("1 s: %.0f allocs for %d requests; 4 s: %.0f allocs for %d requests", a1, n1, a4, n4)
	if a1 > 256 {
		t.Errorf("1 s epoch made %.0f allocations, want a per-epoch constant ≤ 256", a1)
	}
	if a4 > a1+8 {
		t.Errorf("allocations grew with requests: %.0f for %d requests vs %.0f for %d", a4, n4, a1, n1)
	}
}

func TestRunBytesIndependentOfRequests(t *testing.T) {
	// Arrivals stream from the generator into the event loop and the
	// queue reuses its consumed prefix, so an open-loop epoch's bytes
	// follow its peak queue depth, not its request count. Quadrupling a
	// stable epoch (the config above) may add only a small constant; a
	// materialized schedule alone adds 8 bytes a request.
	var hist stats.LogHistogram
	bytesPerRun := func(d time.Duration) (uint64, int) {
		o := Options{
			Arrival:  ArrivalConfig{Kind: Poisson, Rate: 2000},
			Server:   ServerConfig{Servers: 2, Service: ServiceConfig{Mean: 500 * time.Microsecond, Sigma: 0.5}},
			Duration: d,
			Seed:     5,
			Hist:     &hist,
		}
		res, err := Run(o) // warm-up: the histogram's buckets
		if err != nil {
			t.Fatal(err)
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			Run(o)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs, res.Offered
	}
	b1, n1 := bytesPerRun(time.Second)
	b4, n4 := bytesPerRun(4 * time.Second)
	t.Logf("1 s: %d bytes for %d requests; 4 s: %d bytes for %d requests", b1, n1, b4, n4)
	if b4 > b1+1024 {
		t.Errorf("bytes grew with requests: %d for %d requests vs %d for %d", b4, n4, b1, n1)
	}
}

func TestRunRefusesRequestCap(t *testing.T) {
	// An epoch that would pass DefaultMaxRequests before its duration
	// ends is refused with an error naming the cap, in both modes,
	// rather than cut short and reported as if complete (Rule 4).
	want := strconv.Itoa(DefaultMaxRequests)

	// Open loop: 10 M req/s for 1 s. A one-deep queue in front of a
	// slow server drops nearly every arrival, which keeps this cheap.
	_, err := Run(Options{
		Arrival:  ArrivalConfig{Rate: 1e7},
		Server:   ServerConfig{QueueCap: 1, Service: ServiceConfig{Mean: time.Second}},
		Duration: time.Second,
		Seed:     1,
	})
	if !errors.Is(err, ErrBadArrivals) || !strings.Contains(err.Error(), want) {
		t.Errorf("open loop past the cap: err = %v, want ErrBadArrivals naming %s", err, want)
	}

	// Closed loop: 1024 clients on one server taking whole batches of
	// 1 µs issue hundreds of millions of requests a second.
	_, err = Run(Options{
		Arrival:  ArrivalConfig{Rate: 1},
		Server:   ServerConfig{BatchMax: 1024, Service: ServiceConfig{Mean: time.Microsecond}},
		Duration: time.Second,
		Seed:     1,
		Mode:     ClosedLoop,
		Clients:  1024,
	})
	if !errors.Is(err, ErrBadServer) || !strings.Contains(err.Error(), want) {
		t.Errorf("closed loop past the cap: err = %v, want ErrBadServer naming %s", err, want)
	}

	// Just under the cap, both run.
	if _, err := Run(Options{
		Arrival:  ArrivalConfig{Rate: 1e6},
		Server:   ServerConfig{QueueCap: 1, Service: ServiceConfig{Mean: time.Second}},
		Duration: 4 * time.Second,
		Seed:     1,
	}); err != nil {
		t.Errorf("open loop under the cap: %v", err)
	}
}
