package shard

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// fuzzSweepBytes builds a small valid sweep.json for seeding.
func fuzzSweepBytes(tb testing.TB, shards int) []byte {
	tb.Helper()
	dir := tb.TempDir()
	sw := buildSweep(tb, dir, 4, shards)
	_ = sw
	data, err := os.ReadFile(filepath.Join(dir, SweepFile))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzLoadSweep throws arbitrary sweep.json bytes at the sweep loader.
// LoadSweep must never panic, and anything it accepts must be
// internally consistent: the recorded hash matches a recomputation over
// the recorded units (tamper with either and the load is refused), the
// partition covers the canonical order exactly, and every unit ID is
// filesystem-safe — the same invariants NewSweep enforces at creation.
func FuzzLoadSweep(f *testing.F) {
	valid := fuzzSweepBytes(f, 2)
	f.Add(valid)
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"version":1,"units":[],"num_shards":0}`))
	f.Add([]byte(`{"version":1,"units":[{"id":"../evil","seed":1}],"num_shards":1}`))
	// Tampered seeds: flip a unit seed, and flip a hash character.
	if i := len(valid) / 2; i > 0 {
		t := append([]byte(nil), valid...)
		t[i] ^= 0x04
		f.Add(t)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, SweepFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		sw, err := LoadSweep(dir)
		if err != nil {
			return
		}
		want, herr := hashSweep(sw.Version, sw.Units, sw.FaultFingerprint)
		if herr != nil || sw.SweepHash != want {
			t.Fatalf("accepted sweep fails hash recomputation: %v (recorded %s, want %s)",
				herr, sw.SweepHash, want)
		}
		if sw.NumShards < 1 || sw.NumShards > len(sw.Units) {
			t.Fatalf("accepted sweep with NumShards %d over %d units", sw.NumShards, len(sw.Units))
		}
		ranges := Partition(len(sw.Units), sw.NumShards)
		next := 0
		for _, r := range ranges {
			if r[0] != next || r[1] <= r[0] {
				t.Fatalf("partition gap/empty range %v at %d", r, next)
			}
			next = r[1]
		}
		if next != len(sw.Units) {
			t.Fatalf("partition covers %d of %d units", next, len(sw.Units))
		}
		for _, u := range sw.Units {
			if !SafeID(u.ID) {
				t.Fatalf("accepted sweep with unsafe unit ID %q", u.ID)
			}
		}
		// Shard manifests derived from an accepted sweep must round-trip
		// through Create/LoadManifest unchanged.
		sub := filepath.Join(dir, "out")
		if err := Create(sub, sw); err != nil {
			t.Fatalf("Create refused an accepted sweep: %v", err)
		}
		for i := range sw.Shards() {
			m, err := LoadManifest(filepath.Join(sub, ShardDirName(i)))
			if err != nil {
				t.Fatalf("shard %d manifest does not round-trip: %v", i, err)
			}
			if m.SweepHash != sw.SweepHash || m.Index != i {
				t.Fatalf("shard %d manifest identity mangled: %+v", i, m)
			}
		}
	})
}

// FuzzLoadManifest throws arbitrary shard.json bytes at the shard
// manifest loader and the merge-side drift check: no panics, and a
// manifest that decodes is either consistent with its sweep or refused
// by checkShardManifest with ErrShardDrift — never silently merged.
func FuzzLoadManifest(f *testing.F) {
	swDir := f.TempDir()
	sw := buildSweep(f, swDir, 4, 2)
	want := sw.Shards()[0]
	valid, err := json.Marshal(want)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":1,"shard":1,"num_shards":2}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, ManifestFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := LoadManifest(dir)
		if err != nil {
			return
		}
		err = checkShardManifest(got, want)
		if err != nil && !errors.Is(err, ErrShardDrift) {
			t.Fatalf("drift check failed with non-drift error: %v", err)
		}
		if err == nil {
			// Accepted as matching: every identity field must agree.
			if got.SweepHash != want.SweepHash || got.FaultFingerprint != want.FaultFingerprint ||
				got.Index != want.Index || len(got.Units) != len(want.Units) {
				t.Fatalf("drift check passed a mismatched manifest:\n got %+v\nwant %+v", got, want)
			}
		}
	})
}
