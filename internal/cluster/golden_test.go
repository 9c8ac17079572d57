package cluster_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/cluster"
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
