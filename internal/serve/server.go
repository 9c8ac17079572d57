package serve

import (
	"fmt"
	"math"
	"time"

	"repro/internal/desim"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Telemetry: serve's own behaviour, observable without perturbing it
// (these writes never reach a histogram or an RNG stream).
var (
	telRequests = telemetry.Default().Counter("serve.requests")
	telDropped  = telemetry.Default().Counter("serve.dropped")
	telBatches  = telemetry.Default().Counter("serve.batches")
)

// ServiceConfig is the per-request service-time model: lognormal with
// median Mean and shape Sigma (Sigma 0 = deterministic Mean), drawn from
// a per-request stream keyed on (seed, request index) so a request's
// cost is identical whether it is served open-loop, closed-loop, first,
// or last — the property the coordinated-omission comparison and every
// bit-identity guarantee rest on.
type ServiceConfig struct {
	Mean    time.Duration
	Sigma   float64
	PerItem time.Duration // added service time per extra request in a batch
}

// Stall is one injected server freeze: no batch may start service inside
// [At, At+Dur). In-flight batches complete normally — the stall models a
// scheduler stall or GC pause at the dispatch point, the canonical
// trigger of coordinated omission.
type Stall struct {
	At  time.Duration
	Dur time.Duration
}

// ServerConfig parametrizes the simulated service.
type ServerConfig struct {
	// Servers is the number of parallel service units (default 1).
	Servers int
	// QueueCap bounds the pending-request queue; arrivals beyond it are
	// dropped and counted (0 = unbounded).
	QueueCap int
	// BatchMax is the largest batch a server takes at once (default 1 =
	// no batching). BatchDelay is how long an unfilled batch waits for
	// more requests before dispatching anyway (0 = dispatch whatever is
	// queued as soon as a server is free) — the size/deadline policy of
	// inference serving.
	BatchMax   int
	BatchDelay time.Duration
	// Service is the service-time model.
	Service ServiceConfig
	// Stalls are injected dispatch freezes, sorted by At.
	Stalls []Stall
}

// ErrBadServer reports a nonsensical server configuration.
var ErrBadServer = fmt.Errorf("serve: invalid server config")

func (c ServerConfig) withDefaults() (ServerConfig, error) {
	if c.Servers == 0 {
		c.Servers = 1
	}
	if c.BatchMax == 0 {
		c.BatchMax = 1
	}
	if c.Servers < 0 || c.QueueCap < 0 || c.BatchMax < 0 || c.BatchDelay < 0 {
		return c, fmt.Errorf("%w: negative servers/queue/batch parameters", ErrBadServer)
	}
	if c.Service.Mean == 0 {
		c.Service.Mean = time.Millisecond
	}
	if c.Service.Mean < 0 || c.Service.PerItem < 0 {
		return c, fmt.Errorf("%w: negative service-time parameters", ErrBadServer)
	}
	if !(c.Service.Sigma >= 0) || math.IsInf(c.Service.Sigma, 1) {
		return c, fmt.Errorf("%w: service sigma %g must be non-negative and finite", ErrBadServer, c.Service.Sigma)
	}
	for i, s := range c.Stalls {
		if s.At < 0 || s.Dur <= 0 {
			return c, fmt.Errorf("%w: stall %d at %v for %v", ErrBadServer, i, s.At, s.Dur)
		}
		if i > 0 && s.At < c.Stalls[i-1].At+c.Stalls[i-1].Dur {
			return c, fmt.Errorf("%w: stalls must be sorted and non-overlapping", ErrBadServer)
		}
	}
	return c, nil
}

// LoopMode selects how the load generator issues requests.
type LoopMode string

// Load-generation modes.
const (
	// OpenLoop issues requests on the arrival schedule regardless of
	// responses — the only mode whose tail percentiles are free of
	// coordinated omission.
	OpenLoop LoopMode = "open-loop"
	// ClosedLoop keeps a fixed number of clients, each issuing its next
	// request only after the previous response — the shape of most
	// naive benchmark loops, which under-reports tails under stalls.
	ClosedLoop LoopMode = "closed-loop"
)

// DefaultMaxRequests caps a single epoch's request count as a safety
// valve against runaway rate×duration configurations. The cap is
// declared, never silent: Run refuses an epoch in which more requests
// than this would arrive (open loop) or be issued (closed loop) before
// its duration ends, rather than cut it short.
const DefaultMaxRequests = 4 << 20

// Options configures one simulated serving epoch.
type Options struct {
	Arrival  ArrivalConfig
	Server   ServerConfig
	Duration time.Duration
	Seed     uint64
	// Mode defaults to OpenLoop.
	Mode LoopMode
	// Clients is the closed-loop concurrency (0 = Servers).
	Clients int
	// Hist, when non-nil, receives the latency recordings (reset
	// first); otherwise a fresh histogram is allocated. Lets sweep
	// loops reuse one histogram allocation across epochs.
	Hist *stats.LogHistogram
}

// Result is one fully simulated epoch.
type Result struct {
	Mode LoopMode
	// Offered counts generated requests (scheduled arrivals open-loop,
	// issued requests closed-loop); Completed counts requests served and
	// recorded; Dropped counts arrivals rejected by the bounded queue.
	// Offered == Completed + Dropped.
	Offered   int
	Completed int
	Dropped   int
	// Batches counts dispatched batches; MeanBatch is the mean batch
	// size (NaN when no batch dispatched).
	Batches   int
	MeanBatch float64
	// OfferedRate is Offered/Duration in req/s; Throughput is
	// Completed/End — the achieved service rate over the full drain.
	OfferedRate float64
	Throughput  float64
	// MaxLatency is the exact worst sojourn time; End is the simulated
	// time at which the last completion fired (≥ Duration under
	// backlog).
	MaxLatency time.Duration
	End        time.Duration
	// Hist holds every recorded request latency in seconds.
	Hist *stats.LogHistogram
}

// request is one in-flight request.
type request struct {
	idx     int
	arrival time.Duration
}

// sim is the per-epoch simulation state driven by the desim engine.
type sim struct {
	eng  desim.Engine
	cfg  ServerConfig
	mode LoopMode
	seed uint64

	// queue is the FIFO of waiting requests, a ring: its n live
	// slots run from queue[head], wrapping at the end. Its length is a
	// power of two, doubled only when every slot is live, so its memory
	// is O(peak depth).
	queue []request
	head  int
	n     int

	// Servers, built once per Run so steady-state dispatch allocates
	// nothing: free is the stack of idle server ids, busy[id] the batch
	// server id is serving (its buffer reused batch after batch), and
	// done[id] its completion handler. spare is the buffer complete swaps
	// in while it iterates a finished batch; wakeFn is the shared
	// dispatch re-check.
	free   []int
	busy   [][]request
	done   []desim.Handler
	spare  []request
	wakeFn desim.Handler

	hist      *stats.LogHistogram
	completed int
	dropped   int
	batches   int
	batchSum  int
	maxLat    time.Duration

	wakePending bool
	wakeTime    time.Duration

	// Closed-loop issue state; capped records an issue that the
	// DefaultMaxRequests cap refused.
	duration time.Duration
	issued   int
	capped   bool
}

// serviceDraw returns request i's service time, a pure function of
// (seed, i).
func (s *sim) serviceDraw(i int) time.Duration {
	svc := s.cfg.Service
	if svc.Sigma == 0 {
		return svc.Mean
	}
	st := rng.NewStream(
		rng.Mix64(s.seed^serviceSaltHi^uint64(i)),
		rng.Mix64(s.seed^serviceSaltLo^uint64(i)),
	)
	return time.Duration(math.Round(float64(svc.Mean) * rng.Exp(svc.Sigma*st.NormFloat64())))
}

// stallClear returns the earliest time ≥ t at which dispatch is allowed.
func (s *sim) stallClear(t time.Duration) time.Duration {
	for _, st := range s.cfg.Stalls {
		if t < st.At {
			return t
		}
		if t < st.At+st.Dur {
			return st.At + st.Dur
		}
	}
	return t
}

// arrive admits (or drops) one request at the current simulated time.
func (s *sim) arrive(idx int) {
	if s.cfg.QueueCap > 0 && s.n >= s.cfg.QueueCap {
		s.dropped++
		telDropped.Inc()
		return
	}
	if s.n == len(s.queue) {
		// Full: double the ring, its live slots copied to the front in
		// FIFO order.
		q := make([]request, max(2*s.n, 64))
		copy(q[copy(q, s.queue[s.head:]):], s.queue[:s.head])
		s.queue, s.head = q, 0
	}
	s.queue[(s.head+s.n)&(len(s.queue)-1)] = request{idx: idx, arrival: s.eng.Now()}
	s.n++
	s.tryDispatch()
}

// buildServers gives every server its completion handler and an empty
// batch buffer and builds the shared wake handler, once per Run.
func (s *sim) buildServers() {
	n := s.cfg.Servers
	s.free = make([]int, n)
	s.busy = make([][]request, n)
	s.done = make([]desim.Handler, n)
	for id := range s.done {
		s.free[id] = id
		s.done[id] = func(*desim.Engine) { s.complete(id) }
	}
	s.wakeFn = func(e *desim.Engine) {
		if s.wakeTime == e.Now() {
			s.wakePending = false
		}
		s.tryDispatch()
	}
}

// wake schedules a dispatch re-check at `at`, deduplicating against an
// already-pending earlier wake. Stale wake events are harmless:
// tryDispatch is idempotent.
func (s *sim) wake(at time.Duration) {
	if s.wakePending && s.wakeTime <= at {
		return
	}
	s.wakePending = true
	s.wakeTime = at
	s.eng.At(at, s.wakeFn)
}

// tryDispatch hands queued requests to idle servers under the batching
// policy: dispatch a full batch immediately, or an unfilled one once the
// oldest request has waited BatchDelay; defer any start that lands
// inside a stall window to its end.
func (s *sim) tryDispatch() {
	now := s.eng.Now()
	for len(s.free) > 0 && s.n > 0 {
		k := s.n
		if k > s.cfg.BatchMax {
			k = s.cfg.BatchMax
		}
		if k < s.cfg.BatchMax && s.cfg.BatchDelay > 0 {
			if deadline := s.queue[s.head].arrival + s.cfg.BatchDelay; now < deadline {
				s.wake(deadline)
				return
			}
		}
		if clear := s.stallClear(now); clear > now {
			s.wake(clear)
			return
		}

		id := s.free[len(s.free)-1]
		s.free = s.free[:len(s.free)-1]
		end := min(s.head+k, len(s.queue))
		batch := append(append(s.busy[id][:0], s.queue[s.head:end]...), s.queue[:k-(end-s.head)]...)
		s.busy[id] = batch
		s.head = (s.head + k) & (len(s.queue) - 1)
		s.n -= k
		s.batches++
		s.batchSum += k
		telBatches.Inc()

		// Batch service: the requests run together (the GPU-inference
		// shape — cost is the slowest member) plus a linear per-item
		// overhead.
		var dur time.Duration
		for _, r := range batch {
			if d := s.serviceDraw(r.idx); d > dur {
				dur = d
			}
		}
		dur += s.cfg.Service.PerItem * time.Duration(k-1)
		s.eng.After(dur, s.done[id])
	}
}

// complete records server id's finished batch and, closed-loop, lets
// each freed client issue its next request.
func (s *sim) complete(id int) {
	now := s.eng.Now()
	// Closed-loop arrivals below may re-dispatch this very server, so
	// hand it the spare buffer before iterating its batch.
	batch := s.busy[id]
	s.busy[id], s.spare = s.spare, batch
	s.free = append(s.free, id)
	for _, r := range batch {
		lat := now - r.arrival
		if lat > s.maxLat {
			s.maxLat = lat
		}
		s.hist.Record(lat.Seconds())
		s.completed++
		telRequests.Inc()
		if s.mode == ClosedLoop && now < s.duration {
			s.issue()
		}
	}
	s.tryDispatch()
}

// issue sends the closed loop's next request, unless it would pass the
// DefaultMaxRequests cap.
func (s *sim) issue() {
	if s.issued == DefaultMaxRequests {
		s.capped = true
		return
	}
	idx := s.issued
	s.issued++
	s.arrive(idx)
}

// Run simulates one serving epoch to completion (all admitted requests
// served) and returns the analyzed result. The simulation is a pure
// function of Options: a single-threaded discrete-event run whose
// arrivals and per-request service draws are derived from the seed
// alone — see DESIGN.md §9 for the determinism contract. An epoch that
// would pass DefaultMaxRequests is refused with an error naming the cap.
func Run(o Options) (Result, error) {
	srv, err := o.Server.withDefaults()
	if err != nil {
		return Result{}, err
	}
	if o.Duration <= 0 {
		return Result{}, fmt.Errorf("%w: duration %v must be positive", ErrBadServer, o.Duration)
	}
	if o.Mode == "" {
		o.Mode = OpenLoop
	}
	if o.Mode != OpenLoop && o.Mode != ClosedLoop {
		return Result{}, fmt.Errorf("%w: unknown mode %q", ErrBadServer, o.Mode)
	}
	// Both modes validate the arrival config: open and closed runs of
	// the same Options must agree on what the experiment was.
	arrivals, err := o.Arrival.withDefaults()
	if err != nil {
		return Result{}, err
	}
	hist := o.Hist
	if hist == nil {
		hist = &stats.LogHistogram{}
	}
	hist.Reset()

	s := &sim{
		cfg:      srv,
		mode:     o.Mode,
		seed:     o.Seed,
		hist:     hist,
		duration: o.Duration,
	}
	s.buildServers()

	offered := 0
	switch o.Mode {
	case OpenLoop:
		// Arrivals stream from the generator straight into the event
		// loop, never queued: the engine runs everything before each
		// arrival instant, then the arrival runs — ahead of any event
		// queued at the same instant, exactly the order preloading the
		// whole schedule would give.
		capped := false
		generate(arrivals, o.Duration, o.Seed, func(at time.Duration) bool {
			if offered == DefaultMaxRequests {
				capped = true
				return false
			}
			s.eng.AdvanceTo(at)
			s.arrive(offered)
			offered++
			return true
		})
		if capped {
			return Result{}, fmt.Errorf("%w: more than the %d-request cap (DefaultMaxRequests) arrive within %v",
				ErrBadArrivals, DefaultMaxRequests, o.Duration)
		}
	case ClosedLoop:
		clients := o.Clients
		if clients <= 0 {
			clients = srv.Servers
		}
		for c := 0; c < clients && !s.capped; c++ {
			s.issue()
		}
	}

	end := s.eng.Run()
	if o.Mode == ClosedLoop {
		if s.capped {
			return Result{}, fmt.Errorf("%w: the closed loop would issue more than the %d-request cap (DefaultMaxRequests) within %v",
				ErrBadServer, DefaultMaxRequests, o.Duration)
		}
		offered = s.issued
	}

	res := Result{
		Mode:        o.Mode,
		Offered:     offered,
		Completed:   s.completed,
		Dropped:     s.dropped,
		Batches:     s.batches,
		MeanBatch:   math.NaN(),
		OfferedRate: float64(offered) / o.Duration.Seconds(),
		MaxLatency:  s.maxLat,
		End:         end,
		Hist:        hist,
	}
	if s.batches > 0 {
		res.MeanBatch = float64(s.batchSum) / float64(s.batches)
	}
	if end > 0 {
		res.Throughput = float64(s.completed) / end.Seconds()
	}
	return res, nil
}
