package remote

import (
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/shard"
)

// FuzzChunkFrame throws arbitrary wire bytes — torn, duplicated,
// CRC-corrupted, path-hostile — at the full decode → validate → apply
// path a coordinator runs on every chunk POST. The mirror must never
// be written outside the shard directory and never accept a frame whose
// payload fails its checksum.
func FuzzChunkFrame(f *testing.F) {
	good := ChunkFrame{WorkerID: "w000", Shard: 0, Attempt: 1,
		Path: "units/u00-cfg-00/journal.jsonl", Off: 0,
		Data: []byte(`{"seq":1}` + "\n"), CRC: crc32.ChecksumIEEE([]byte(`{"seq":1}` + "\n"))}
	seed, _ := json.Marshal(good)
	f.Add(seed)
	torn := append([]byte(nil), seed[:len(seed)/2]...)
	f.Add(torn)
	bad := good
	bad.CRC ^= 0xdeadbeef
	b, _ := json.Marshal(bad)
	f.Add(b)
	evil := good
	evil.Path = "../../../../etc/passwd"
	b, _ = json.Marshal(evil)
	f.Add(b)
	// A protocol-v2 truncate frame: the field is unknown now, so it
	// decodes as an empty append.
	f.Add([]byte(`{"worker_id":"w000","shard":0,"attempt":1,"path":"units/u00-cfg-00/journal.jsonl","off":0,"truncate":true,"crc":0}`))
	f.Add([]byte(`{"path":"units/x/result.json","off":-9,"attempt":1}`))

	f.Fuzz(func(t *testing.T, raw []byte) {
		var frame ChunkFrame
		if err := json.Unmarshal(raw, &frame); err != nil {
			return
		}
		if err := frame.Validate(); err != nil {
			return
		}
		// Validated frames must apply without panicking and without
		// escaping the shard mirror.
		dir := t.TempDir()
		c := &Coordinator{sweepDir: dir}
		resp := c.applyChunk(&lease{}, frame)
		if resp.OK && len(frame.Data) > 0 {
			full := filepath.Join(dir, shard.ShardDirName(frame.Shard), filepath.FromSlash(frame.Path))
			rel, err := filepath.Rel(dir, full)
			if err != nil || strings.HasPrefix(rel, "..") {
				t.Fatalf("accepted frame escaped the sweep dir: %q", frame.Path)
			}
			if _, err := os.Stat(full); err != nil {
				t.Fatalf("accepted frame left no mirror file: %v", err)
			}
		}
		// Whatever landed on disk must be confined to the temp dir tree.
		filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error { return err })
	})
}

// FuzzRegister exercises registration decoding and validation with
// hostile handshakes: wrong protocol versions, junk addresses, missing
// fingerprints. Validate must reject them without panicking, and
// accepted registrations must carry a plausible callback address.
func FuzzRegister(f *testing.F) {
	env := HostEnv()
	fp, _ := Fingerprint(env)
	ok := RegisterRequest{Protocol: ProtocolVersion, Addr: "http://127.0.0.1:9", Hostname: "h", Env: env, EnvFingerprint: fp}
	b, _ := json.Marshal(ok)
	f.Add(b)
	f.Add([]byte(`{"protocol":99,"addr":"http://x","env_fingerprint":"z"}`))
	f.Add([]byte(`{"protocol":1,"addr":"gopher://x","env_fingerprint":"z"}`))
	f.Add([]byte(`{"protocol":1,"addr":"","env_fingerprint":""}`))
	f.Add([]byte(`{`))

	f.Fuzz(func(t *testing.T, raw []byte) {
		var req RegisterRequest
		if err := json.Unmarshal(raw, &req); err != nil {
			return
		}
		if err := req.Validate(); err != nil {
			return
		}
		if req.Protocol != ProtocolVersion {
			t.Fatalf("accepted foreign protocol %d", req.Protocol)
		}
		if !strings.HasPrefix(req.Addr, "http://") && !strings.HasPrefix(req.Addr, "https://") {
			t.Fatalf("accepted non-HTTP callback %q", req.Addr)
		}
		if req.EnvFingerprint == "" {
			t.Fatal("accepted registration without an environment fingerprint")
		}
	})
}

// FuzzValidChunkPath pins the path filter directly: nothing outside
// units/<id>/<shard file> may pass, regardless of encoding tricks.
func FuzzValidChunkPath(f *testing.F) {
	for _, s := range []string{
		"units/u00/journal.jsonl", "units/../x/journal.jsonl", "/units/u/journal.jsonl",
		"units/u\x00/journal.jsonl", "units//journal.jsonl", "units/u/./journal.jsonl",
		"units/u/heartbeat.json",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, p string) {
		if !ValidChunkPath(p) {
			return
		}
		clean := filepath.ToSlash(filepath.Clean(p))
		if clean != p {
			t.Fatalf("accepted non-canonical path %q (clean %q)", p, clean)
		}
		if strings.Contains(p, "..") || strings.HasPrefix(p, "/") {
			t.Fatalf("accepted traversal path %q", p)
		}
	})
}
