// Package cluster implements a simulated parallel machine — the
// substitute for the paper's Cray XC30/XC40 and InfiniBand systems (see
// DESIGN.md, substitutions). It models nodes and processes, per-process
// clocks with offset, drift and granularity, a noisy network (latency
// floor, log-normal body, heavy interference tail, bandwidth term), node
// heterogeneity and OS jitter, and the message-passing collectives the
// paper measures (ping-pong, binomial-tree reduce and broadcast,
// dissemination barrier) plus the delay-window time synchronization of
// §4.2.1. All randomness derives from the machine's seed: point-to-point
// paths, compute phases and machine construction draw from one shared
// PCG stream, while collectives draw from per-rank streams reseeded per
// invocation from (seed, invocation, rank), so every experiment
// reproduces bit-for-bit for any worker count. Log-normal factors use
// rng.Exp, whose bits do not depend on the CPU architecture.
package cluster

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"repro/internal/faults"
	"repro/internal/noise"
	"repro/internal/rng"
	"repro/internal/telemetry"
)

// Telemetry: simulation volume, observable without perturbing it — the
// counters never touch the machine's seeded stream, so simulated
// experiments stay bit-identical with telemetry on or off.
var (
	telMachines = telemetry.Default().Counter("cluster.machines")
	telMessages = telemetry.Default().Counter("cluster.messages")
)

// Placement selects how ranks map onto nodes (§4.1.2 notes batch
// allocation policies such as packed or scattered layouts matter).
type Placement int

const (
	// Packed fills each node's cores before moving to the next node.
	Packed Placement = iota
	// Scattered round-robins ranks across nodes.
	Scattered
)

// String returns the placement-policy name.
func (p Placement) String() string {
	switch p {
	case Packed:
		return "packed"
	case Scattered:
		return "scattered"
	}
	return fmt.Sprintf("Placement(%d)", int(p))
}

// Config describes a simulated system. The network latency of one
// one-way inter-node message is
//
//	LatFloor + LatBody·exp(LatSigma·Z) + bytes/BandwidthBps [+ rare Pareto tail]
//
// which produces the right-skewed, heavy-tailed latency distributions of
// the paper's Figures 2–4.
type Config struct {
	Name         string
	Nodes        int
	CoresPerNode int
	Placement    Placement

	// Network model.
	LatFloor     time.Duration // deterministic wire/NIC floor (one-way)
	LatBody      time.Duration // median of the variable part
	LatSigma     float64       // log-normal sigma of the variable part
	TailProb     float64       // probability of an interference hit per message
	TailScale    time.Duration // minimum extra delay on a hit
	TailAlpha    float64       // Pareto tail index of the hit (e.g. 2–3)
	IntraNodeLat time.Duration // one-way latency between ranks sharing a node
	BandwidthBps float64       // per-link bandwidth, bytes/second

	// Compute model.
	FlopsPerSec float64     // per-core sustained flop rate
	CPUNoise    noise.Model // per-compute-phase perturbation (nil = none)

	// Node heterogeneity: per-node speed factors are drawn log-normally
	// with sigma NodeSigma (0 = homogeneous), and the first DaemonNodes
	// nodes host a periodic OS-jitter daemon with a random phase.
	NodeSigma    float64
	DaemonNodes  int
	DaemonPeriod time.Duration
	DaemonWindow time.Duration

	// Clock model (per process).
	ClockOffsetMax   time.Duration // uniform initial offset in ±max
	ClockDriftPPM    float64       // uniform drift in ±ppm
	ClockGranularity time.Duration // reading quantization (0 = exact)

	// Collective cost model.
	ReduceOpCost time.Duration // combining two partial values
	SendOverhead time.Duration // CPU cost to issue one message

	// Faults, when non-nil, injects the schedule's adversarial events —
	// stragglers, interference bursts, message loss with retransmit,
	// rank crashes, clock steps — into every message, compute phase, and
	// clock reading. The schedule is pure data and all randomness still
	// flows from the machine's seeded stream, so faulty experiments
	// reproduce bit-for-bit.
	Faults *faults.Schedule

	// Collective engine controls (see collective_engine.go). ResultMode
	// selects per-rank vs summary collective results; ModeAuto switches
	// to summaries at SummaryThreshold ranks (default 65536).
	ResultMode       ResultMode
	SummaryThreshold int
}

// proc is one simulated process (MPI rank analogue).
type proc struct {
	rank        int
	node        int
	clockOffset time.Duration
	clockDrift  float64 // fractional (1e-6 per ppm)
	speed       float64 // node speed factor (1 = nominal)
	daemon      noise.Model
}

// Machine is an instantiated simulated system with a fixed number of
// ranks. Machines are not safe for concurrent use: experiments drive
// them sequentially, exactly like a benchmark driving one job (the
// collective engine's internal workers synchronize per tree level and
// never outlive a call).
type Machine struct {
	cfg    Config
	rng    *rand.Rand
	seed   uint64
	procs  []proc // flat: a million-rank machine is one slab, not 2^20 heap objects
	topo   TopologyConfig
	now    time.Duration // global (true) simulated time
	fstats FaultStats

	// Collective engine state (collective_engine.go): per-rank RNG
	// streams reseeded per invocation, reusable O(P) scratch buffers,
	// and per-worker fault accounting. collWorkers overrides the level
	// fan-out for the worker-invariance tests: 0 selects
	// defaultCollectiveWorkers, any other value that many workers
	// (1 or less is serial).
	collSeq     uint64
	streams     []rng.Stream
	forceExact  int
	bufPool     [][]time.Duration
	wstats      []FaultStats
	collWorkers int
}

// FaultStats counts the fault events the machine absorbed — the
// accounting Rule 4's "report all data, including failures" needs.
type FaultStats struct {
	// Retransmits is the total number of retransmissions performed by
	// the loss protocol.
	Retransmits int
	// LostMessages counts messages that needed at least one
	// retransmission.
	LostMessages int
	// CrashTimeouts counts transfers abandoned because one endpoint had
	// crashed; each cost the surviving peer the schedule's CrashWait.
	CrashTimeouts int
}

// FaultStats returns the fault events absorbed since construction (or
// the last ResetFaultStats).
func (m *Machine) FaultStats() FaultStats { return m.fstats }

// ResetFaultStats clears the fault accounting, e.g. between campaigns
// sharing one machine.
func (m *Machine) ResetFaultStats() { m.fstats = FaultStats{} }

// New builds a machine with the given number of ranks placed per the
// config; all randomness derives from seed.
func New(cfg Config, ranks int, seed uint64) (*Machine, error) {
	if cfg.Nodes <= 0 || cfg.CoresPerNode <= 0 {
		return nil, fmt.Errorf("cluster: config needs Nodes and CoresPerNode > 0")
	}
	if ranks <= 0 {
		return nil, fmt.Errorf("cluster: ranks = %d must be positive", ranks)
	}
	if ranks > cfg.Nodes*cfg.CoresPerNode {
		return nil, fmt.Errorf("cluster: %d ranks exceed %d nodes × %d cores",
			ranks, cfg.Nodes, cfg.CoresPerNode)
	}
	if err := cfg.Faults.Validate(); err != nil {
		return nil, err
	}
	telMachines.Inc()
	m := &Machine{
		cfg:  cfg,
		rng:  rand.New(rand.NewPCG(seed, 0x5c1beccd)),
		seed: seed,
	}

	// Per-node characteristics.
	speeds := make([]float64, cfg.Nodes)
	daemons := make([]noise.Model, cfg.Nodes)
	for n := 0; n < cfg.Nodes; n++ {
		speeds[n] = 1.0
		if cfg.NodeSigma > 0 {
			speeds[n] = rng.Exp(cfg.NodeSigma * m.rng.NormFloat64())
		}
		if n < cfg.DaemonNodes && cfg.DaemonPeriod > 0 && cfg.DaemonWindow > 0 {
			daemons[n] = noise.Periodic{
				Period: cfg.DaemonPeriod,
				Window: cfg.DaemonWindow,
				Phase:  time.Duration(m.rng.Int64N(int64(cfg.DaemonPeriod))),
			}
		}
	}

	m.procs = make([]proc, ranks)
	for r := 0; r < ranks; r++ {
		var node int
		if cfg.Placement == Scattered {
			node = r % cfg.Nodes
		} else {
			node = r / cfg.CoresPerNode
		}
		p := &m.procs[r]
		p.rank, p.node, p.speed, p.daemon = r, node, speeds[node], daemons[node]
		if cfg.ClockOffsetMax > 0 {
			p.clockOffset = time.Duration(m.rng.Int64N(2*int64(cfg.ClockOffsetMax))) -
				cfg.ClockOffsetMax
		}
		if cfg.ClockDriftPPM > 0 {
			p.clockDrift = (2*m.rng.Float64() - 1) * cfg.ClockDriftPPM * 1e-6
		}
	}
	return m, nil
}

// Ranks returns the number of processes.
func (m *Machine) Ranks() int { return len(m.procs) }

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Now returns the global simulated time.
func (m *Machine) Now() time.Duration { return m.now }

// Advance moves global simulated time forward (used between repetitions
// so time-correlated noise such as OS daemons decorrelates across runs).
func (m *Machine) Advance(d time.Duration) {
	if d > 0 {
		m.now += d
	}
}

// Lognormal draws a multiplicative exp(sigma·Z) factor from the
// machine's random stream. Long aggregate runs (e.g. whole HPL
// executions) use it to model per-run system state — batch allocation
// quality, global network load — that per-event noise cannot capture.
func (m *Machine) Lognormal(sigma float64) float64 {
	return rng.Exp(sigma * m.rng.NormFloat64())
}

// HalfLognormal draws exp(sigma·|Z|), a one-sided multiplicative
// slowdown of at least 1 — interference only ever delays.
func (m *Machine) HalfLognormal(sigma float64) float64 {
	return rng.Exp(sigma * math.Abs(m.rng.NormFloat64()))
}

// NodeOf returns the node hosting a rank.
func (m *Machine) NodeOf(rank int) int { return m.procs[rank].node }

// LocalTime converts a global simulated instant to rank r's local clock
// reading, applying offset, drift, scheduled clock steps, and
// granularity — the asynchronous clock model behind §4.2.1's "parallel
// time" discussion.
func (m *Machine) LocalTime(rank int, global time.Duration) time.Duration {
	p := &m.procs[rank]
	t := p.clockOffset + time.Duration(float64(global)*(1+p.clockDrift))
	t += m.cfg.Faults.ClockShift(rank, global)
	if g := m.cfg.ClockGranularity; g > 0 {
		t = t / g * g
	}
	return t
}

// GlobalFromLocal inverts LocalTime (ignoring granularity): the global
// instant at which rank r's clock first reads local. With scheduled
// clock steps the inversion is a fixed point — the shift in effect
// depends on the global instant being solved for — so a step landing
// inside a delay-window wait moves the rank's start by the step size,
// exactly the silent §4.2.1 skew that synchronizing before an NTP
// adjustment produces.
func (m *Machine) GlobalFromLocal(rank int, local time.Duration) time.Duration {
	p := &m.procs[rank]
	g := time.Duration(float64(local-p.clockOffset) / (1 + p.clockDrift))
	f := m.cfg.Faults
	if f == nil {
		return g
	}
	// Each iteration either reproduces the previous shift (converged) or
	// crosses at least one step boundary, so steps+1 passes suffice;
	// a negative step can make the clock read `local` twice, in which
	// case the bounded loop settles on one consistent crossing.
	for i := 0; i <= len(f.ClockSteps); i++ {
		next := time.Duration(float64(local-p.clockOffset-f.ClockShift(rank, g)) /
			(1 + p.clockDrift))
		if next == g {
			break
		}
		g = next
	}
	return g
}

// msgLatencySrc draws one one-way message latency between two ranks at
// global time `at`, including the bandwidth term for the payload and any
// scheduled faults: a crashed endpoint turns the transfer into a
// CrashWait timeout, bursts multiply the inter-node path, stragglers
// stretch everything their node touches, and the loss protocol adds
// retransmission waits. Draws come from src and fault events go to fs:
// point-to-point paths pass the machine's shared stream and fault
// stats; the collective engine passes the RECEIVER's per-rank stream
// and a per-worker FaultStats, which is what makes level-batched and
// multi-worker evaluation bit-identical to serial evaluation. Callers
// add their messages to the telemetry count once per call, not here.
func (m *Machine) msgLatencySrc(src noise.Source, fs *FaultStats, from, to, bytes int, at time.Duration) time.Duration {
	f := m.cfg.Faults
	if f != nil && (f.CrashedAt(from, at) || f.CrashedAt(to, at)) {
		// The surviving peer blocks until the runtime declares the
		// transfer dead. No latency is drawn: nothing was delivered.
		fs.CrashTimeouts++
		return f.CrashWait()
	}
	pf, pt := &m.procs[from], &m.procs[to]
	var lat float64
	interNode := pf.node != pt.node
	if !interNode {
		lat = float64(m.cfg.IntraNodeLat)
		if lat <= 0 {
			lat = float64(m.cfg.LatFloor) / 4
		}
		// Intra-node transfers still jitter a little.
		lat *= rng.Exp(m.cfg.LatSigma / 2 * src.NormFloat64())
	} else {
		lat = float64(m.cfg.LatFloor) + float64(m.hopExtra(pf.node, pt.node)) +
			float64(m.cfg.LatBody)*rng.Exp(m.cfg.LatSigma*src.NormFloat64())
		if m.cfg.TailProb > 0 && src.Float64() < m.cfg.TailProb {
			u := src.Float64()
			for u == 0 {
				u = src.Float64()
			}
			alpha := m.cfg.TailAlpha
			if alpha <= 0 {
				alpha = 2
			}
			lat += float64(m.cfg.TailScale) / math.Pow(u, 1/alpha)
		}
		if f != nil {
			lat *= f.BurstFactorAt(at)
		}
	}
	if m.cfg.BandwidthBps > 0 && bytes > 0 {
		lat += float64(bytes) / m.cfg.BandwidthBps * float64(time.Second)
	}
	if f != nil {
		// The slower endpoint gates the transfer end to end.
		if slow := math.Max(f.SlowdownAt(pf.node, at), f.SlowdownAt(pt.node, at)); slow > 1 {
			lat *= slow
		}
	}
	d := time.Duration(lat)
	if f != nil && interNode {
		if wait, retries := f.RetransmitDelay(src); retries > 0 {
			fs.Retransmits += retries
			fs.LostMessages++
			d += wait
		}
	}
	// Receiver-side daemon interference can delay delivery processing.
	if pt.daemon != nil {
		d = pt.daemon.Perturb(src, at+d, d)
	}
	if d < 0 {
		d = 0
	}
	return d
}

// ComputeTime returns the simulated wall time for `flops` floating point
// operations on rank r starting at global time `at`, including node
// speed, CPU noise and daemon interference.
func (m *Machine) ComputeTime(rank int, flops float64, at time.Duration) time.Duration {
	if m.cfg.FlopsPerSec <= 0 {
		return 0
	}
	p := &m.procs[rank]
	d := time.Duration(flops / (m.cfg.FlopsPerSec * p.speed) * float64(time.Second))
	if m.cfg.CPUNoise != nil {
		d = m.cfg.CPUNoise.Perturb(m.rng, at, d)
	}
	if p.daemon != nil {
		d = p.daemon.Perturb(m.rng, at, d)
	}
	if f := m.cfg.Faults; f != nil {
		if slow := f.SlowdownAt(p.node, at); slow > 1 {
			d = time.Duration(float64(d) * slow)
		}
	}
	return d
}

// opCostSrc returns one noisy reduction-operator application on rank r,
// drawing from src (the rank's own stream inside collectives).
func (m *Machine) opCostSrc(src noise.Source, rank int, at time.Duration) time.Duration {
	d := m.cfg.ReduceOpCost
	if d <= 0 {
		return 0
	}
	d = time.Duration(float64(d) / m.procs[rank].speed)
	if m.cfg.CPUNoise != nil {
		d = m.cfg.CPUNoise.Perturb(src, at, d)
	}
	return d
}

// PingPong performs `rounds` request–reply exchanges of `bytes` between
// two ranks and returns the observed one-way latency estimates
// (round-trip time halved), the quantity plotted in Figures 2–4 and 7c.
// The first WarmupRounds are included — discarding them is the
// measurement layer's policy decision (§4.1.2, "Warmup").
func (m *Machine) PingPong(a, b, bytes, rounds int) []time.Duration {
	return m.PingPongCtx(context.Background(), a, b, bytes, rounds)
}

// PingPongCtx is PingPong under a context: cancellation stops the
// exchange between rounds and returns the rounds completed so far, so a
// long sweep hands control back promptly instead of finishing a large
// fixed batch. The machine's clock only advances for completed rounds,
// keeping an interrupted exchange resumable deterministically.
func (m *Machine) PingPongCtx(ctx context.Context, a, b, bytes, rounds int) []time.Duration {
	out := make([]time.Duration, 0, rounds)
	for i := 0; i < rounds; i++ {
		if ctx != nil && ctx.Err() != nil {
			break
		}
		fwd := m.msgLatencySrc(m.rng, &m.fstats, a, b, bytes, m.now)
		m.now += fwd
		back := m.msgLatencySrc(m.rng, &m.fstats, b, a, bytes, m.now)
		m.now += back
		out = append(out, (fwd+back+2*m.cfg.SendOverhead)/2)
	}
	telMessages.Add(2 * int64(len(out)))
	return out
}
