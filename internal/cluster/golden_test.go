package cluster_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"slices"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/suite"
	"repro/internal/telemetry"
)

// TestSimulatorGoldenBytes pins the simulator's output bytes: a
// collective sweep through suite.Run (per-rank streams, the collective
// engine, the adaptive loop) and a long ping-pong series on the machine's
// shared stream. A change to how the simulator draws its noise — the exp
// kernel, the normal transform, the draw order — must leave both digests
// as they are, or the change alters every published number.
func TestSimulatorGoldenBytes(t *testing.T) {
	const (
		wantSuite    = "f30b164fec75a471c805bf499602fbfcc4bb72cedde3812f6e5da95db59b047e"
		wantPingPong = "054a452e4ea1f7b2f3d94a3b477d9b15c6471517ef843522c99fb6bf2966787c"
	)
	h := sha256.New()
	for _, seed := range []uint64{1, 2} {
		res, err := suite.Run(context.Background(), suite.Config{
			Cluster:     cluster.PizDaint(),
			Collectives: []string{suite.Reduce, suite.Allreduce, suite.Bcast, suite.Barrier},
			Ranks:       []int{4, 64, 1024, 16384},
			Bytes:       []int{8, 1024},
			MinRuns:     40,
			MaxRuns:     40,
			Seed:        seed,
			Workers:     2,
		}, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := res.WriteReport(h); err != nil {
			t.Fatal(err)
		}
		// The table rounds to four digits; the rows keep every bit.
		for _, row := range res.Rows {
			fmt.Fprintf(h, "%+v\n", row)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != wantSuite {
		t.Errorf("suite report digest = %s, want %s", got, wantSuite)
	}

	m, err := cluster.New(cluster.PizDaint(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	h.Reset()
	var buf [8]byte
	for i := 0; i < 200; i++ {
		for _, d := range m.PingPong(0, 1, 64, 2048) {
			binary.LittleEndian.PutUint64(buf[:], uint64(d))
			h.Write(buf[:])
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != wantPingPong {
		t.Errorf("ping-pong digest = %s, want %s", got, wantPingPong)
	}

	// An exchange cancelled mid-way counts two messages per completed
	// round and none for the rounds it never ran.
	messages := telemetry.Default().Counter("cluster.messages")
	before := messages.Value()
	ctx := &cancelAfter{Context: context.Background(), n: 37}
	out := m.PingPongCtx(ctx, 0, 1, 64, 100)
	if len(out) != 37 {
		t.Fatalf("cancelled exchange returned %d rounds, want 37", len(out))
	}
	if got := messages.Value() - before; got != 2*int64(len(out)) {
		t.Errorf("cluster.messages rose by %d, want %d (2 × %d rounds)", got, 2*len(out), len(out))
	}
}

// cancelAfter reports cancellation once Err has been asked n times, so a
// ping-pong stops at a known round without racing a timer.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n <= 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// pointToPointCase is one machine driven through `calls` ping-pong
// exchanges of 2048 rounds, then one DelayWindowSync(1ms, 3).
type pointToPointCase struct {
	name               string
	want               string // SHA-256 of the rounds, clock, fault stats and skews
	cfg                cluster.Config
	topo               cluster.TopologyConfig
	seed               uint64
	a, b, bytes, calls int
}

// pointToPointCases reach the point-to-point paths TestSimulatorGoldenBytes
// does not: inter-node exchanges with their tail and bandwidth terms
// (and a dragonfly hop), the intra-node LatFloor/4 fallback without a
// payload, and an exchange under a fault schedule.
func pointToPointCases() []pointToPointCase {
	intraFallback := cluster.PizDaint()
	intraFallback.IntraNodeLat = 0
	storm, err := faults.Preset("storm")
	if err != nil {
		panic(err)
	}
	storm.Crashes = []faults.Crash{{Rank: 63, At: 300 * time.Millisecond}}
	storm.CrashTimeout = 100 * time.Microsecond
	faulty := cluster.PizDora()
	faulty.Faults = storm
	return []pointToPointCase{
		{name: "daint-inter", cfg: cluster.PizDaint(), seed: 1, a: 0, b: 63, bytes: 64, calls: 50,
			want: "5329fae7f71c694bb547bad614f89567e8e8689f8b8bb0e7cca241094fc441c8"},
		{name: "dora-inter", cfg: cluster.PizDora(), seed: 2, a: 0, b: 63, bytes: 64, calls: 50,
			want: "af0c60a4693d7a96b40932695d3e76182875aac5359198e756b9e9853224196b"},
		{name: "daint-dragonfly-hop", cfg: cluster.PizDaint(), seed: 3, a: 0, b: 63, bytes: 64, calls: 10,
			topo: cluster.TopologyConfig{Kind: cluster.TopoDragonfly, GroupSize: 4, HopLatency: 500 * time.Nanosecond},
			want: "be313c08b198b22313861c7398aa59ccf4e23d5a499453ee6b82143a6b2ea2f5"},
		{name: "intra-floor-fallback", cfg: intraFallback, seed: 4, a: 0, b: 1, bytes: 0, calls: 50,
			want: "117bee150dfd310a5e9ba335e7df6652116c85d146af6912c87af507dcd88a18"},
		{name: "dora-storm-faults", cfg: faulty, seed: 5, a: 0, b: 63, bytes: 64, calls: 20,
			want: "42d0df9ddd6cf5b080991c30de60af55dcc12c6caf75ac14df9b90c7d3537834"},
	}
}

// runPointToPoint builds the case's 64-rank machine and writes every
// round, the final clock and fault stats, and the skews of one
// delay-window synchronization to h.
func runPointToPoint(t *testing.T, c pointToPointCase, h hash.Hash) {
	t.Helper()
	m := newPointToPointMachine(t, c)
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for i := 0; i < c.calls; i++ {
		for _, d := range m.PingPong(c.a, c.b, c.bytes, 2048) {
			put(int64(d))
		}
	}
	fs := m.FaultStats()
	put(int64(m.Now()))
	put(int64(fs.Retransmits))
	put(int64(fs.LostMessages))
	put(int64(fs.CrashTimeouts))
	for _, d := range m.DelayWindowSync(time.Millisecond, 3).Skew {
		put(int64(d))
	}
}

// TestPointToPointGoldenBytes pins the point-to-point output bytes of
// pointToPointCases. The digests were recorded with every message drawn
// by msgLatencySrc; any change to how a message latency is drawn must
// leave them as they are.
func TestPointToPointGoldenBytes(t *testing.T) {
	for _, c := range pointToPointCases() {
		t.Run(c.name, func(t *testing.T) {
			h := sha256.New()
			runPointToPoint(t, c, h)
			if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
				t.Errorf("digest = %s, want %s", got, c.want)
			}
		})
	}
}

func newPointToPointMachine(t *testing.T, c pointToPointCase) *cluster.Machine {
	t.Helper()
	m, err := cluster.New(c.cfg, 64, c.seed)
	if err != nil {
		t.Fatal(err)
	}
	m.SetTopology(c.topo)
	return m
}

// TestPointToPointMatchesPerMessage drives two machines of one seed
// through each of pointToPointCases: one by PingPongCtx, one with every
// message drawn by msgLatencySrc. Every fourth exchange is cancelled
// part-way through. The rounds, the clock, the fault stats and the
// position of the shared stream must be the same on both.
func TestPointToPointMatchesPerMessage(t *testing.T) {
	for _, c := range pointToPointCases() {
		t.Run(c.name, func(t *testing.T) {
			got, ref := newPointToPointMachine(t, c), newPointToPointMachine(t, c)
			for i := 0; i < c.calls; i++ {
				var gctx, rctx context.Context = context.Background(), context.Background()
				want := 2048
				if i%4 == 3 {
					want = 100 + i
					gctx = &cancelAfter{Context: context.Background(), n: want}
					rctx = &cancelAfter{Context: context.Background(), n: want}
				}
				g := got.PingPongCtx(gctx, c.a, c.b, c.bytes, 2048)
				r := ref.RefPingPongCtx(rctx, c.a, c.b, c.bytes, 2048)
				if len(g) != want || !slices.Equal(g, r) {
					t.Fatalf("exchange %d: %d rounds differ from the per-message %d (want %d rounds)",
						i, len(g), len(r), want)
				}
				if got.Now() != ref.Now() {
					t.Fatalf("exchange %d: clock %v, per-message %v", i, got.Now(), ref.Now())
				}
			}
			if got.FaultStats() != ref.FaultStats() {
				t.Errorf("fault stats %+v, per-message %+v", got.FaultStats(), ref.FaultStats())
			}
			if g, r := got.NextDraw(), ref.NextDraw(); g != r {
				t.Errorf("next draw %#x, per-message %#x: the stream positions differ", g, r)
			}
		})
	}
}
