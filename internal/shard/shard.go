// Package shard is the distributed-campaign control plane: it
// partitions a sweep's canonical config order into shard manifests,
// runs each shard as an independent journaled campaign in its own
// executor, supervises those executors (crash and stall accounting,
// reassignment with backoff), and merges the shard journals
// back into one report that is byte-identical to the single-process
// run. Liveness is not decided here: a launcher whose executors can
// wedge (the remote coordinator) ends a stalled attempt's Wait with an
// error wrapping ErrStalled, and the supervisor counts it.
//
// The design leans on two earlier guarantees: the per-config seed table
// makes every unit independently reproducible (its samples depend only
// on its own seed and config, never on which executor ran it or in what
// order), and the write-ahead CRC journal makes every unit resumable
// bit-for-bit after a crash. Sharding therefore changes only wall-clock
// time and failure exposure — never a reported byte. What remains for
// this package is the part the paper's Rules 6 and 9 demand and naive
// multi-machine harnesses skip (Hunold & Carpen-Amarie): refusing to
// pool journals whose recorded setup drifted, accounting every shard
// lost to exhausted retries explicitly instead of silently dropping it,
// and running a change-point check at every merge seam so cross-shard
// environment contamination is detected rather than averaged away.
package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/campaign"
	"repro/internal/rules"
)

// FormatVersion identifies the on-disk sweep/shard manifest layout.
const FormatVersion = 1

// On-disk layout of a sweep directory:
//
//	<dir>/sweep.json             the SweepManifest
//	<dir>/shard-000/shard.json   one Manifest per shard
//	<dir>/shard-000/done.json    written when the shard completes
//	<dir>/shard-000/units/<id>/  one journaled campaign per unit
//	<dir>/merged.json            the merged manifest (per-shard record)
const (
	SweepFile    = "sweep.json"
	ManifestFile = "shard.json"
	DoneFile     = "done.json"
	UnitsDir     = "units"
	MergedFile   = "merged.json"
)

// UnitResultFile marks a completed unit inside its campaign directory;
// a reassigned executor skips units that carry it instead of
// re-measuring completed observations.
const UnitResultFile = "result.json"

// ShardDirName returns the directory name of shard i.
func ShardDirName(i int) string { return fmt.Sprintf("shard-%03d", i) }

// Unit is one independently reproducible config of a sweep: its
// canonical ID, its seed from the per-config seed table, the hash of
// its full configuration, and the opaque configuration itself (whatever
// the executor's UnitRunner needs to rebuild the measurement).
type Unit struct {
	ID         string          `json:"id"`
	Seed       uint64          `json:"seed"`
	ConfigHash string          `json:"config_hash"`
	Config     json.RawMessage `json:"config,omitempty"`
}

// SweepManifest pins a sharded sweep: the canonical unit order, the
// fault fingerprint shared by every unit, the Rule 9 environment block,
// and the partition width. SweepHash is the sweep's identity — the hash
// of the canonical unit list — and deliberately excludes NumShards:
// repartitioning the same sweep is the same experiment.
type SweepManifest struct {
	Version          int               `json:"version"`
	Name             string            `json:"name,omitempty"`
	Units            []Unit            `json:"units"`
	NumShards        int               `json:"num_shards"`
	FaultFingerprint string            `json:"fault_fingerprint"`
	Environment      rules.Environment `json:"environment"`
	SweepHash        string            `json:"sweep_hash"`
	CreatedAt        time.Time         `json:"created_at"`
	// Journal once selected the unit journal format.
	//
	// Deprecated: unit journals are always written as v2; nothing reads
	// this field.
	Journal string `json:"journal,omitempty"`
}

// Manifest is one shard's manifest: a contiguous slice of the sweep's
// canonical unit order, bound to the sweep by SweepHash so a merge can
// refuse a shard directory that drifted from (or never belonged to)
// the sweep it sits in.
type Manifest struct {
	Version          int               `json:"version"`
	SweepName        string            `json:"sweep_name,omitempty"`
	SweepHash        string            `json:"sweep_hash"`
	FaultFingerprint string            `json:"fault_fingerprint"`
	Index            int               `json:"index"`
	NumShards        int               `json:"num_shards"`
	Units            []Unit            `json:"units"`
	Environment      rules.Environment `json:"environment"`
	CreatedAt        time.Time         `json:"created_at"`
}

// Errors of the shard layer.
var (
	// ErrBadSweep reports an invalid sweep definition.
	ErrBadSweep = errors.New("shard: invalid sweep")
	// ErrSweepExists reports NewSweep on a directory already holding one.
	ErrSweepExists = errors.New("shard: directory already holds a sweep")
	// ErrNoSweep reports a load on a directory without a sweep manifest.
	ErrNoSweep = errors.New("shard: no sweep in directory")
	// ErrShardDrift reports a shard or unit directory whose recorded
	// identity does not match the sweep that claims it (Rule 9).
	ErrShardDrift = errors.New("shard: manifest drift, merge refused")
	// ErrStalled is wrapped by the Wait error of an executor attempt
	// that was fenced because it stopped completing measurements; the
	// supervisor counts such an attempt as a stall, not a crash.
	ErrStalled = errors.New("shard: executor stalled")
)

// hashSweep computes the sweep identity: the canonical unit list plus
// the shared fault fingerprint, under the format version.
func hashSweep(version int, units []Unit, faultFP string) (string, error) {
	return campaign.HashJSON(struct {
		Version          int    `json:"version"`
		Units            []Unit `json:"units"`
		FaultFingerprint string `json:"fault_fingerprint"`
	}{version, units, faultFP})
}

// NewSweep validates a sweep definition and computes its identity hash.
// Units must be non-empty with unique, filesystem-safe IDs; shards must
// be in [1, len(units)].
func NewSweep(name string, units []Unit, faultFP string, env rules.Environment, shards int) (SweepManifest, error) {
	if len(units) == 0 {
		return SweepManifest{}, fmt.Errorf("%w: no units", ErrBadSweep)
	}
	if shards < 1 || shards > len(units) {
		return SweepManifest{}, fmt.Errorf("%w: %d shard(s) for %d unit(s); need 1 ≤ shards ≤ units",
			ErrBadSweep, shards, len(units))
	}
	seen := make(map[string]bool, len(units))
	for _, u := range units {
		if !SafeID(u.ID) {
			return SweepManifest{}, fmt.Errorf("%w: unit ID %q is not filesystem-safe ([A-Za-z0-9._-]+, no leading dot)", ErrBadSweep, u.ID)
		}
		if seen[u.ID] {
			return SweepManifest{}, fmt.Errorf("%w: duplicate unit ID %q", ErrBadSweep, u.ID)
		}
		seen[u.ID] = true
	}
	h, err := hashSweep(FormatVersion, units, faultFP)
	if err != nil {
		return SweepManifest{}, fmt.Errorf("shard: hashing sweep: %w", err)
	}
	return SweepManifest{
		Version:          FormatVersion,
		Name:             name,
		Units:            units,
		NumShards:        shards,
		FaultFingerprint: faultFP,
		Environment:      env,
		SweepHash:        h,
		CreatedAt:        time.Now().UTC(),
	}, nil
}

// SafeID accepts IDs that are usable verbatim as directory names.
func SafeID(id string) bool {
	if id == "" || id[0] == '.' {
		return false
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '.' || r == '_' || r == '-':
		default:
			return false
		}
	}
	return true
}

// Partition splits n units into `shards` contiguous [start, end) ranges
// of near-equal size, in canonical order. Contiguity is deliberate: the
// merge seams between shards are then single points in the canonical
// stream, where the Rule 6 change-point check can localize cross-shard
// contamination.
func Partition(n, shards int) [][2]int {
	if shards < 1 {
		shards = 1
	}
	if shards > n {
		shards = n
	}
	out := make([][2]int, shards)
	for i := 0; i < shards; i++ {
		out[i] = [2]int{i * n / shards, (i + 1) * n / shards}
	}
	return out
}

// Shards materializes the sweep's shard manifests from its partition.
func (s SweepManifest) Shards() []Manifest {
	ranges := Partition(len(s.Units), s.NumShards)
	out := make([]Manifest, len(ranges))
	for i, r := range ranges {
		out[i] = Manifest{
			Version:          s.Version,
			SweepName:        s.Name,
			SweepHash:        s.SweepHash,
			FaultFingerprint: s.FaultFingerprint,
			Index:            i,
			NumShards:        len(ranges),
			Units:            s.Units[r[0]:r[1]],
			Environment:      s.Environment,
			CreatedAt:        s.CreatedAt,
		}
	}
	return out
}

// Create writes the sweep directory: sweep.json plus one shard
// directory per partition, each carrying its shard manifest. It refuses
// a directory that already holds a sweep.
func Create(dir string, s SweepManifest) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	if _, err := os.Stat(filepath.Join(dir, SweepFile)); err == nil {
		return fmt.Errorf("%w: %s", ErrSweepExists, dir)
	}
	for _, m := range s.Shards() {
		sd := filepath.Join(dir, ShardDirName(m.Index))
		if err := os.MkdirAll(filepath.Join(sd, UnitsDir), 0o755); err != nil {
			return fmt.Errorf("shard: %w", err)
		}
		if err := WriteJSON(filepath.Join(sd, ManifestFile), m); err != nil {
			return err
		}
	}
	return WriteJSON(filepath.Join(dir, SweepFile), s)
}

// LoadSweep reads and re-verifies a sweep manifest: the stored
// SweepHash must match the recomputed hash of the unit list, so a
// hand-edited sweep (changed seeds, reordered units) is refused rather
// than silently merged.
func LoadSweep(dir string) (SweepManifest, error) {
	var s SweepManifest
	if err := readJSON(filepath.Join(dir, SweepFile), &s); err != nil {
		if os.IsNotExist(err) {
			return s, fmt.Errorf("%w: %s", ErrNoSweep, dir)
		}
		return s, fmt.Errorf("shard: reading sweep manifest: %w", err)
	}
	h, err := hashSweep(s.Version, s.Units, s.FaultFingerprint)
	if err != nil {
		return s, fmt.Errorf("shard: hashing sweep: %w", err)
	}
	if h != s.SweepHash {
		return s, fmt.Errorf("%w: mismatched field(s): sweep hash (recorded %s, recomputed %s)",
			ErrShardDrift, short(s.SweepHash), short(h))
	}
	return s, nil
}

// LoadManifest reads one shard directory's manifest.
func LoadManifest(shardDir string) (Manifest, error) {
	var m Manifest
	if err := readJSON(filepath.Join(shardDir, ManifestFile), &m); err != nil {
		return m, fmt.Errorf("shard: reading shard manifest: %w", err)
	}
	return m, nil
}

// UnitDir returns the campaign directory of unit id inside a shard.
func UnitDir(shardDir, id string) string {
	return filepath.Join(shardDir, UnitsDir, id)
}

// WriteJSON writes v as indented JSON via a temp file + rename, so a
// crash never publishes a half-written manifest under the final name.
func WriteJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("shard: encoding %s: %w", filepath.Base(path), err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	return nil
}

// readJSON reads path into v, passing through os.IsNotExist errors.
func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("corrupt %s: %w", filepath.Base(path), err)
	}
	return nil
}

func short(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}
