// Package campaign makes benchmark campaigns durable and interruptible:
// a write-ahead sample journal (append-only chunks of delta-encoded
// records, each CRC32-framed and fsynced), a campaign manifest binding
// the journal to its exact experimental setup (config hash, RNG seed,
// fault-schedule fingerprint, environment description — Rule 9's
// reproducibility record), and a resume path that replays a
// possibly-truncated journal, drops the torn tail, fast-forwards the
// deterministic measure source, and continues collection exactly where
// it stopped.
//
// The motivation is the paper's Rule 2 ("report all data") under the
// reality Hunold & Carpen-Amarie document: multi-hour campaigns die
// mid-run. Without a journal, a crash or Ctrl-C silently discards every
// sample gathered so far; with one, the campaign checkpoints on every
// observation and an interrupted run resumes bit-for-bit. Resume is
// refused when the configuration drifted — continuing a campaign under
// a different setup would silently mix two experiments, which the
// twelve-rule audit surfaces as a Rule 9 violation.
package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/faults"
	"repro/internal/rules"
)

// FormatVersion identifies the on-disk journal/manifest layout.
const FormatVersion = 1

// Manifest binds a journal to the exact experimental setup that
// produced it. Seed, ConfigHash and FaultFingerprint are the identity
// of the campaign: resume compares them and refuses on any drift.
type Manifest struct {
	Version int    `json:"version"`
	Name    string `json:"name,omitempty"`
	// Seed is the RNG seed of the deterministic measure source.
	Seed uint64 `json:"seed"`
	// ConfigHash is the SHA-256 of the canonical JSON encoding of the
	// campaign configuration (plan, machine, flags — whatever the
	// caller declares as "the setup").
	ConfigHash string `json:"config_hash"`
	// FaultFingerprint is the SHA-256 of the injected fault schedule
	// (the hash of JSON "null" when no faults are injected): a changed
	// schedule is a changed experiment.
	FaultFingerprint string `json:"fault_fingerprint"`
	// Environment is the Rule 9 description of the experimental
	// environment, stored alongside the data it explains.
	Environment rules.Environment `json:"environment"`
	// Sweep, when non-nil, marks this campaign as one unit of a sharded
	// sweep (internal/shard): which sweep it belongs to and which unit
	// it measures. SweepHash and UnitID are campaign identity — a
	// reassigned executor resuming the unit must present the same
	// membership; the shard index is informational (reassignment keeps
	// the shard, but identity must not depend on which executor ran it).
	Sweep *SweepRef `json:"sweep,omitempty"`
	// CreatedAt records when the campaign started (informational; not
	// part of the campaign identity).
	CreatedAt time.Time `json:"created_at"`
}

// SweepRef identifies the sharded sweep a unit campaign belongs to.
type SweepRef struct {
	// SweepHash is the SHA-256 identity of the whole sweep (its
	// canonical unit list; see internal/shard).
	SweepHash string `json:"sweep_hash"`
	// UnitID names this campaign's unit within the sweep.
	UnitID string `json:"unit_id"`
	// Shard is the shard index the unit was assigned to (informational).
	Shard int `json:"shard"`
}

// NewManifest builds a manifest for a campaign: config is the caller's
// complete setup description (hashed canonically), sched the injected
// fault schedule (nil for none), env the Rule 9 environment record.
func NewManifest(name string, seed uint64, config any, sched *faults.Schedule, env rules.Environment) (Manifest, error) {
	ch, err := HashJSON(config)
	if err != nil {
		return Manifest{}, fmt.Errorf("campaign: hashing config: %w", err)
	}
	ff, err := HashJSON(sched)
	if err != nil {
		return Manifest{}, fmt.Errorf("campaign: hashing fault schedule: %w", err)
	}
	return Manifest{
		Version:          FormatVersion,
		Name:             name,
		Seed:             seed,
		ConfigHash:       ch,
		FaultFingerprint: ff,
		Environment:      env,
		CreatedAt:        time.Now().UTC(),
	}, nil
}

// HashJSON returns the hex SHA-256 of v's JSON encoding. Go's JSON
// encoder is canonical for structs (declaration order) and maps (sorted
// keys), so equal configurations hash equally.
func HashJSON(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// ErrManifestDrift reports a resume attempt whose current setup differs
// from the recorded one. Continuing would mix two experiments in one
// sample — a Rule 9 violation the audit engine reports.
var ErrManifestDrift = errors.New("campaign: manifest drift, resume refused")

// Drift is one mismatched manifest identity field: its human name and
// the two values that disagree.
type Drift struct {
	Field    string
	Recorded string
	Current  string
}

func (d Drift) String() string {
	return fmt.Sprintf("%s (recorded %s, current %s)", d.Field, d.Recorded, d.Current)
}

// DriftFields compares the identity fields of two manifests and returns
// one Drift per mismatch, in declaration order. An empty result means
// the two manifests describe the same experiment. Version is compared
// too: a format mismatch is a drift like any other, named explicitly.
func DriftFields(recorded, current Manifest) []Drift {
	var ds []Drift
	drift := func(field, rec, cur string) {
		ds = append(ds, Drift{Field: field, Recorded: rec, Current: cur})
	}
	if recorded.Version != current.Version {
		drift("journal format version", fmt.Sprintf("v%d", recorded.Version), fmt.Sprintf("v%d", current.Version))
	}
	if recorded.Seed != current.Seed {
		drift("RNG seed", fmt.Sprint(recorded.Seed), fmt.Sprint(current.Seed))
	}
	if recorded.ConfigHash != current.ConfigHash {
		drift("config hash", short(recorded.ConfigHash), short(current.ConfigHash))
	}
	if recorded.FaultFingerprint != current.FaultFingerprint {
		drift("fault-schedule fingerprint", short(recorded.FaultFingerprint), short(current.FaultFingerprint))
	}
	switch {
	case recorded.Sweep == nil && current.Sweep == nil:
	case recorded.Sweep == nil:
		drift("sweep membership", "standalone campaign", "sweep unit "+current.Sweep.UnitID)
	case current.Sweep == nil:
		drift("sweep membership", "sweep unit "+recorded.Sweep.UnitID, "standalone campaign")
	default:
		if recorded.Sweep.SweepHash != current.Sweep.SweepHash {
			drift("sweep hash", short(recorded.Sweep.SweepHash), short(current.Sweep.SweepHash))
		}
		if recorded.Sweep.UnitID != current.Sweep.UnitID {
			drift("sweep unit", recorded.Sweep.UnitID, current.Sweep.UnitID)
		}
	}
	return ds
}

// driftFindings converts drifted fields to Rule 9 audit findings.
func driftFindings(ds []Drift, action string) []rules.Finding {
	fs := make([]rules.Finding, 0, len(ds))
	for _, d := range ds {
		fs = append(fs, rules.Finding{
			Rule:     9,
			Severity: rules.Violation,
			Message: fmt.Sprintf("%s %s drifted (recorded %s, current %s): "+
				"the samples would not share the recorded experimental setup", action, d.Field, d.Recorded, d.Current),
		})
	}
	return fs
}

// driftError builds the ErrManifestDrift-wrapping error that names
// exactly which fields mismatched, so a refused resume (or merge) tells
// the operator what to fix rather than issuing a generic refusal.
func driftError(ds []Drift) error {
	names := make([]string, len(ds))
	for i, d := range ds {
		names[i] = d.String()
	}
	return fmt.Errorf("%w: mismatched field(s): %s", ErrManifestDrift, strings.Join(names, "; "))
}

// CheckResume compares the recorded manifest against the current one
// and returns one Rule 9 audit finding per drifted identity field plus
// ErrManifestDrift naming every mismatched field when resume must be
// refused. A nil error means the setups match and resume is sound.
func CheckResume(recorded, current Manifest) ([]rules.Finding, error) {
	ds := DriftFields(recorded, current)
	if len(ds) == 0 {
		return nil, nil
	}
	return driftFindings(ds, "resume"), driftError(ds)
}

func short(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}
