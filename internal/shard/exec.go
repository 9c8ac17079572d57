package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/telemetry"
)

// Telemetry: executor-side shard accounting. Counters only — nothing
// here may change a journal or report byte.
var (
	telUnitsRun     = telemetry.Default().Counter("shard.units_run")
	telUnitsResumed = telemetry.Default().Counter("shard.units_resumed")
	telUnitsSkipped = telemetry.Default().Counter("shard.units_skipped")
)

// UnitRunner rebuilds the measurement for one unit from its opaque
// config: the campaign manifest (without sweep membership — the
// executor injects that), the collection plan, and the deterministic
// measure function positioned at the unit's seed. The same runner must
// produce the same (manifest, plan, measure) for the same unit on every
// executor, or resume-after-reassignment will correctly refuse with
// manifest drift.
type UnitRunner interface {
	Setup(u Unit) (campaign.Manifest, bench.Plan, func() (float64, error), error)
}

// ExecOptions tunes one executor attempt.
type ExecOptions struct {
	// Attempt is the supervisor-assigned attempt number, recorded in
	// the shard's done.json.
	Attempt int
	// Progress, when non-nil, receives one line per unit (skipped /
	// resumed / measured) — operator output, never report bytes.
	Progress io.Writer
}

// UnitDone is the per-unit completion sentinel (result.json): it marks
// the unit's campaign as complete — a reassigned executor skips units
// that carry it — and summarizes the accounting for quick inspection.
// The merge recomputes everything from the journal and only trusts this
// file as a completion marker.
type UnitDone struct {
	ID      string           `json:"id"`
	Stop    bench.StopReason `json:"stop"`
	N       int              `json:"n"`
	Warmup  int              `json:"warmup_discarded"`
	Retries int              `json:"retries"`
	Losses  int              `json:"samples_lost"`
	Panics  int              `json:"panics"`
}

// ShardDone is the shard completion sentinel (done.json). The
// supervisor reads it to distinguish "executor exited after finishing"
// from "executor died mid-shard".
type ShardDone struct {
	Shard       int       `json:"shard"`
	SweepHash   string    `json:"sweep_hash"`
	Attempt     int       `json:"attempt"`
	Units       []string  `json:"units"`
	CompletedAt time.Time `json:"completed_at"`
}

// LoadDone reads a shard's completion sentinel; ok is false when the
// shard has not completed.
func LoadDone(shardDir string) (ShardDone, bool) {
	var d ShardDone
	if err := readJSON(filepath.Join(shardDir, DoneFile), &d); err != nil {
		return ShardDone{}, false
	}
	return d, true
}

// loadUnitDone reads a unit's completion sentinel.
func loadUnitDone(unitDir string) (UnitDone, bool) {
	var d UnitDone
	if err := readJSON(filepath.Join(unitDir, UnitResultFile), &d); err != nil {
		return UnitDone{}, false
	}
	return d, true
}

// ExecShard runs one shard to completion: every unit in manifest order,
// as an independent journaled campaign under units/<id>/. Units already
// carrying a completion sentinel are skipped; units with a partial
// journal (a previous executor died mid-unit) are resumed bit-for-bit
// via campaign.Resume — completed observations are never re-measured.
// On success the shard's done.json is written and returned.
func ExecShard(ctx context.Context, shardDir string, r UnitRunner, opt ExecOptions) (ShardDone, error) {
	ctx, span := telemetry.StartSpan(ctx, "shard", filepath.Base(shardDir))
	defer span.End()
	m, err := LoadManifest(shardDir)
	if err != nil {
		return ShardDone{}, err
	}
	if opt.Attempt < 1 {
		opt.Attempt = 1
	}
	done := ShardDone{Shard: m.Index, SweepHash: m.SweepHash, Attempt: opt.Attempt}
	for _, u := range m.Units {
		if err := ctx.Err(); err != nil {
			return ShardDone{}, fmt.Errorf("shard: executor interrupted before unit %s: %w", u.ID, err)
		}
		if err := execUnit(ctx, shardDir, m, u, r, opt); err != nil {
			return ShardDone{}, err
		}
		done.Units = append(done.Units, u.ID)
	}
	done.CompletedAt = time.Now().UTC()
	if err := WriteJSON(filepath.Join(shardDir, DoneFile), done); err != nil {
		return ShardDone{}, err
	}
	return done, nil
}

// execUnit runs (or skips, or resumes) one unit campaign.
func execUnit(ctx context.Context, shardDir string, m Manifest, u Unit, r UnitRunner, opt ExecOptions) error {
	dir := UnitDir(shardDir, u.ID)
	if _, ok := loadUnitDone(dir); ok {
		telUnitsSkipped.Inc()
		progress(opt, "unit %s: already complete, skipped\n", u.ID)
		return nil
	}
	man, plan, measure, err := r.Setup(u)
	if err != nil {
		return fmt.Errorf("shard: setting up unit %s: %w", u.ID, err)
	}
	// The runner's manifest must describe exactly the unit the sweep
	// pinned; a mismatch means the executor's configuration drifted from
	// the sweep and running it would journal a different experiment.
	if man.Seed != u.Seed || man.ConfigHash != u.ConfigHash || man.FaultFingerprint != m.FaultFingerprint {
		return fmt.Errorf("%w: unit %s: runner setup disagrees with sweep "+
			"(seed %d/%d, config %s/%s, faults %s/%s)", ErrShardDrift, u.ID,
			man.Seed, u.Seed, short(man.ConfigHash), short(u.ConfigHash),
			short(man.FaultFingerprint), short(m.FaultFingerprint))
	}
	man.Sweep = &campaign.SweepRef{SweepHash: m.SweepHash, UnitID: u.ID, Shard: m.Index}

	var res bench.Result
	switch _, _, lerr := campaign.Load(dir); {
	case lerr == nil:
		// A previous executor died mid-unit: resume from its journal.
		telUnitsResumed.Inc()
		var info campaign.ResumeInfo
		res, info, err = campaign.Resume(ctx, dir, man, plan, measure, campaign.ResumeOptions{})
		if err != nil {
			return fmt.Errorf("shard: resuming unit %s: %w", u.ID, err)
		}
		progress(opt, "unit %s: resumed (%d prior samples, %d replayed) → n=%d\n",
			u.ID, info.PriorSamples, info.FastForwarded, len(res.Raw))
	case errors.Is(lerr, campaign.ErrNoCampaign):
		telUnitsRun.Inc()
		res, err = campaign.Run(ctx, dir, man, plan, measure)
		if err != nil {
			return fmt.Errorf("shard: running unit %s: %w", u.ID, err)
		}
		progress(opt, "unit %s: measured, n=%d (%s)\n", u.ID, len(res.Raw), res.Stop)
	default:
		return fmt.Errorf("shard: inspecting unit %s: %w", u.ID, lerr)
	}
	if res.Stop == bench.StopInterrupted {
		// Checkpointed cleanly but incomplete: no sentinel, so the next
		// attempt resumes where this one stopped.
		return fmt.Errorf("shard: unit %s interrupted after %d samples", u.ID, len(res.Raw))
	}
	return WriteJSON(filepath.Join(dir, UnitResultFile), UnitDone{
		ID:      u.ID,
		Stop:    res.Stop,
		N:       len(res.Raw),
		Warmup:  res.WarmupDiscarded,
		Retries: res.Retries,
		Losses:  res.SamplesLost,
		Panics:  res.Panics,
	})
}

func progress(opt ExecOptions, format string, args ...any) {
	if opt.Progress != nil {
		fmt.Fprintf(opt.Progress, format, args...)
	}
}
