// Package remote crosses the machine boundary for distributed
// campaigns: an HTTP/JSON transport that plugs a remote launcher into
// the shard supervisor's StartFunc seam. A worker agent registers with
// the coordinator, receives hash-pinned shard manifests (seeded with
// the coordinator's journal mirror, so a replacement worker resumes a
// lost worker's units without re-measuring completed observations),
// runs the journaled executor locally, and ships journal bytes back as
// CRC32-framed chunks with resumable offsets into the coordinator's
// mirror of every shard directory.
//
// The mirror is the one lineage of every unit journal. The coordinator
// alone repairs it: when it seeds an attempt, with the shard's previous
// lease already fenced, it cuts each mirrored journal back to its
// CRC-valid prefix. A worker keeps local bytes only when they extend
// that seed, so it only ever appends to the mirror and never asks it to
// shrink.
//
// Liveness lives on the coordinator's lease, in memory. The worker
// counts each completed measure call of an attempt and posts the count
// on every ship tick. The coordinator re-arms the lease's timer only
// when the count advances. When the timer expires, it fences the
// attempt with an error wrapping shard.ErrStalled, and the supervisor
// reassigns the shard. A wedged measure, a dead worker and a partition
// all look the same: no evidence of progress is no evidence.
//
// The failure model is adversarial networking, not adversarial peers:
// messages are dropped, delayed, duplicated, and partitioned (the
// seeded FaultTransport injects exactly those), and a worker presumed
// dead may come back and keep talking. Every mutating message is
// therefore fenced by (sweep hash, shard, attempt): the coordinator
// refuses chunks, heartbeats, and completion claims from any attempt
// other than the one it currently supervises — Rule 9's drift refusal
// extended to attempt identity, so a zombie worker's late bytes can
// never corrupt a reassigned shard's mirror. The invariant stays
// absolute: the merged report is byte-identical to the single-process
// run, or the loss is explicit.
package remote

import (
	"fmt"
	"hash/crc32"
	"slices"
	"strings"

	"repro/internal/campaign"
	"repro/internal/rules"
	"repro/internal/shard"
)

// ProtocolVersion identifies the wire protocol; a version mismatch at
// registration is refused rather than negotiated — a drifted protocol
// is a drifted experiment transport (Rule 9).
const ProtocolVersion = 3

// MaxChunk bounds one chunk frame's payload. Larger ships are split;
// larger received frames are refused.
const MaxChunk = 256 << 10

// Coordinator endpoints (worker → coordinator).
const (
	PathRegister  = "/v1/register"
	PathChunk     = "/v1/chunk"
	PathHeartbeat = "/v1/heartbeat"
	PathDone      = "/v1/done"
	PathFail      = "/v1/fail"
)

// Worker endpoints (coordinator → worker).
const (
	PathAssign = "/v1/assign"
	PathCancel = "/v1/cancel"
	PathStatus = "/v1/status"
)

// RegisterRequest announces a worker to the coordinator: where to reach
// it and the Rule 9 record of the host it measures on. The environment
// fingerprint is the worker's identity for merge-time stratification —
// two workers on one host share it, two hosts never do.
type RegisterRequest struct {
	Protocol       int               `json:"protocol"`
	Addr           string            `json:"addr"` // worker base URL, e.g. http://10.0.0.2:8701
	Hostname       string            `json:"hostname"`
	Env            rules.Environment `json:"env"`
	EnvFingerprint string            `json:"env_fingerprint"`
}

// Validate rejects registrations the coordinator must not accept.
func (r RegisterRequest) Validate() error {
	if r.Protocol != ProtocolVersion {
		return fmt.Errorf("remote: protocol v%d, coordinator speaks v%d", r.Protocol, ProtocolVersion)
	}
	if !strings.HasPrefix(r.Addr, "http://") && !strings.HasPrefix(r.Addr, "https://") {
		return fmt.Errorf("remote: worker addr %q is not an http(s) URL", r.Addr)
	}
	if r.EnvFingerprint == "" {
		return fmt.Errorf("remote: registration carries no environment fingerprint (Rule 9)")
	}
	return nil
}

// RegisterResponse acknowledges a registration.
type RegisterResponse struct {
	WorkerID  string `json:"worker_id"`
	SweepHash string `json:"sweep_hash"`
	SweepName string `json:"sweep_name,omitempty"`
}

// FileState carries one mirrored file whole — the seed a newly assigned
// worker starts from, so reassignment resumes journals instead of
// re-measuring.
type FileState struct {
	Path string `json:"path"`
	Data []byte `json:"data"`
	CRC  uint32 `json:"crc"`
}

// AssignRequest hands one shard attempt to a worker: the hash-pinned
// shard manifest, the fencing attempt number, and the coordinator's
// current mirror of the shard's files.
type AssignRequest struct {
	SweepHash string         `json:"sweep_hash"`
	Shard     int            `json:"shard"`
	Attempt   int            `json:"attempt"`
	Manifest  shard.Manifest `json:"manifest"`
	Seed      []FileState    `json:"seed,omitempty"`
}

// AssignResponse acknowledges (or refuses) an assignment.
type AssignResponse struct {
	OK      bool   `json:"ok"`
	Refused string `json:"refused,omitempty"`
}

// ChunkFrame ships one span of one shard file from worker to
// coordinator. Off is the absolute file offset of Data; CRC is
// crc32.IEEE over Data alone, so a torn or bit-flipped frame is refused
// before any byte lands in the mirror. Frames only ever append: the
// mirror drops a torn tail itself, when it seeds the next attempt.
type ChunkFrame struct {
	WorkerID  string `json:"worker_id"`
	SweepHash string `json:"sweep_hash"`
	Shard     int    `json:"shard"`
	Attempt   int    `json:"attempt"`
	Path      string `json:"path"`
	Off       int64  `json:"off"`
	Data      []byte `json:"data,omitempty"`
	CRC       uint32 `json:"crc"`
}

// Validate checks frame integrity and path safety. It is the only gate
// between wire bytes and mirror writes, so it refuses everything it
// does not positively recognize.
func (f ChunkFrame) Validate() error {
	if !ValidChunkPath(f.Path) {
		return fmt.Errorf("remote: chunk path %q not in the shard file allowlist", f.Path)
	}
	if f.Off < 0 {
		return fmt.Errorf("remote: negative chunk offset %d", f.Off)
	}
	if f.Shard < 0 {
		return fmt.Errorf("remote: negative shard index %d", f.Shard)
	}
	if f.Attempt < 1 {
		return fmt.Errorf("remote: attempt %d below 1", f.Attempt)
	}
	if len(f.Data) > MaxChunk {
		return fmt.Errorf("remote: chunk of %d bytes exceeds MaxChunk %d", len(f.Data), MaxChunk)
	}
	if got := crc32.ChecksumIEEE(f.Data); got != f.CRC {
		return fmt.Errorf("remote: chunk CRC mismatch (frame %08x, payload %08x)", f.CRC, got)
	}
	return nil
}

// ChunkResponse tells the worker where the mirror actually stands.
// ResumeOff is authoritative: a duplicated chunk (offset already
// covered) is acknowledged without rewriting, a gap (offset past the
// mirror) is refused, and in both cases the worker continues shipping
// from ResumeOff — re-shipping only the suffix after a reconnect.
type ChunkResponse struct {
	OK        bool   `json:"ok"`
	ResumeOff int64  `json:"resume_off"`
	Refused   string `json:"refused,omitempty"`
	Stale     bool   `json:"stale,omitempty"` // fenced out: stop shipping this attempt
}

// HeartbeatMsg reports an attempt's progress: Seq is the number of
// measure calls the attempt has completed. The coordinator re-arms the
// lease's liveness timer only when Seq advances, so a worker that keeps
// posting beside a wedged measure still stalls.
type HeartbeatMsg struct {
	WorkerID  string `json:"worker_id"`
	SweepHash string `json:"sweep_hash"`
	Shard     int    `json:"shard"`
	Attempt   int    `json:"attempt"`
	Seq       uint64 `json:"seq"`
}

// FileSum is one entry of a completion inventory: the full-file CRC the
// coordinator re-verifies before trusting a shard as shipped.
type FileSum struct {
	Path string `json:"path"`
	Size int64  `json:"size"`
	CRC  uint32 `json:"crc"`
}

// DoneRequest claims shard completion: the executor's done record plus
// the complete file inventory. The coordinator writes done.json only
// after every mirrored file matches the inventory byte-for-byte — the
// completion barrier that makes "done" mean "fully shipped".
type DoneRequest struct {
	WorkerID  string          `json:"worker_id"`
	SweepHash string          `json:"sweep_hash"`
	Shard     int             `json:"shard"`
	Attempt   int             `json:"attempt"`
	Done      shard.ShardDone `json:"done"`
	Files     []FileSum       `json:"files"`
}

// DoneResponse acknowledges completion or names what is still missing;
// Mirror carries the coordinator's current size per mismatched file so
// the worker re-ships only the missing suffixes.
type DoneResponse struct {
	OK      bool      `json:"ok"`
	Refused string    `json:"refused,omitempty"`
	Stale   bool      `json:"stale,omitempty"`
	Mirror  []FileSum `json:"mirror,omitempty"`
}

// FailRequest reports a failed executor attempt (setup error, drift
// refusal, interrupted unit) so the supervisor reassigns without
// waiting for the liveness timeout.
type FailRequest struct {
	WorkerID  string `json:"worker_id"`
	SweepHash string `json:"sweep_hash"`
	Shard     int    `json:"shard"`
	Attempt   int    `json:"attempt"`
	Error     string `json:"error"`
}

// CancelRequest fences off one attempt on the worker side.
type CancelRequest struct {
	SweepHash string `json:"sweep_hash"`
	Shard     int    `json:"shard"`
	Attempt   int    `json:"attempt"`
}

// shardFiles are the per-unit campaign files a worker ships, in the
// order campaign.Create makes them durable. Shipping and seeding in this
// order keeps the mirror, like the unit directory, from ever holding a
// journal without the manifest that explains it: a replacement executor
// would find no campaign to resume, yet could not create one over the
// journal. done.json is written only by the coordinator after
// inventory verification.
var shardFiles = []string{
	campaign.ManifestFile, // write-once (atomic rename)
	campaign.JournalFile,  // append-only; the coordinator cuts a torn tail when it seeds
	shard.UnitResultFile,  // write-once completion sentinel
}

// ValidChunkPath accepts exactly the relative paths a worker may write
// into a mirrored shard directory: units/<safe-id>/<campaign file>.
func ValidChunkPath(p string) bool {
	parts := strings.Split(p, "/")
	if len(parts) != 3 || parts[0] != "units" {
		return false
	}
	return shard.SafeID(parts[1]) && slices.Contains(shardFiles, parts[2])
}
