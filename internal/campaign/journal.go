package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/bench"
	"repro/internal/telemetry"
)

// Telemetry: journal durability cost, observable without changing a
// byte of the journal itself (internal/telemetry's invariant).
var (
	telRecords = telemetry.Default().Counter("campaign.records")
	telChunks  = telemetry.Default().Counter("campaign.chunks")
	telFsyncUs = telemetry.Default().Histogram("campaign.fsync_us")
)

// fsyncFile, renameFile, journalWrite and truncateFile are indirection
// seams for the crash-durability tests, which record call order
// (write-ahead ordering) or inject mid-append faults (torn-state
// recovery). Production behaviour is the plain syscall.
var (
	fsyncFile    = func(f *os.File) error { return f.Sync() }
	renameFile   = os.Rename
	journalWrite = func(f *os.File, b []byte) (int, error) { return f.Write(b) }
	truncateFile = func(f *os.File, size int64) error { return f.Truncate(size) }
)

// syncDir fsyncs a directory so a just-created or just-renamed entry in
// it survives a crash — without it, POSIX allows the rename itself to be
// lost even though the file's bytes were flushed.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = fsyncFile(d)
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// On-disk layout of a campaign directory.
const (
	// ManifestFile holds the campaign Manifest (JSON).
	ManifestFile = "manifest.json"
	// JournalFile is the append-only event journal, in the chunked
	// binary v2 layout (see journalv2.go) — the only encoding read or
	// written. The name predates that layout and is kept because sweeps,
	// remote chunk shipment and existing campaigns all address the
	// journal by it.
	JournalFile = "journal.jsonl"
)

// Record is one journaled collection event, numbered densely from 1.
type Record struct {
	Seq   int         `json:"seq"`
	Event bench.Event `json:"event"`
}

// State is the collection state reconstructed from a journal.
type State struct {
	// Records are the verified records, in order.
	Records []Record
	// Torn reports that the journal ended in a torn or corrupt record
	// (a crash mid-append, a bit flip); the bad tail was dropped.
	Torn bool
	// ValidBytes is the length of the verified journal prefix; bytes
	// past it are the dropped tail. The prefix includes the format
	// header, so ValidBytes is never less than the header size once the
	// header verified.
	ValidBytes int64
}

// Events extracts the bench event stream from the verified records.
func (s State) Events() []bench.Event {
	evs := make([]bench.Event, len(s.Records))
	for i, r := range s.Records {
		evs[i] = r.Event
	}
	return evs
}

// Samples returns the retained observations, in collection order.
func (s State) Samples() []float64 {
	var xs []float64
	for _, r := range s.Records {
		if r.Event.Kind == bench.EventSample {
			xs = append(xs, r.Event.Value)
		}
	}
	return xs
}

// chunkRecords is the group-commit width: how many records a chunk
// accumulates before it is sealed (written, CRC-framed and fsynced).
// One fsync then covers chunkRecords records instead of one; the price
// is that an OS crash can lose up to chunkRecords-1 trailing events (a
// clean Close loses none). Resume simply re-measures the lost tail —
// bit-identically, for a deterministic source.
const chunkRecords = 64

// Journal is an open write-ahead journal. It implements bench.Recorder:
// attach it via Plan.Record and every collection event is accepted into
// a pending chunk that is framed, checksummed and fsynced to disk every
// chunkRecords records and on Flush/Close.
type Journal struct {
	f       *os.File
	seq     int
	pending []Record // records accepted but not yet sealed
	good    int64    // offset of the last cleanly-written byte (the rewind floor)
	broken  error    // latched after an unrecoverable rewind failure
}

// Errors returned by the journal layer.
var (
	// ErrCampaignExists reports Create on a directory that already
	// holds a campaign (resume it with Open instead).
	ErrCampaignExists = errors.New("campaign: directory already holds a campaign")
	// ErrNoCampaign reports Open on a directory without a manifest.
	ErrNoCampaign = errors.New("campaign: no campaign in directory")
	// ErrNotJournal reports a journal file whose bytes are neither empty
	// nor v2 (an old v1 JSONL journal, or a foreign file). Load refuses
	// it, so Open, Resume and the merge reader never truncate or append
	// to it: the file is left byte-for-byte as it was.
	ErrNotJournal = errors.New("campaign: not a v2 journal (this build reads only v2 journals)")
)

// Create starts a new campaign: it creates dir (if needed), writes the
// manifest, and opens an empty journal. It refuses a directory that
// already contains a campaign.
func Create(dir string, m Manifest) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	mpath := filepath.Join(dir, ManifestFile)
	if _, err := os.Stat(mpath); err == nil {
		return nil, fmt.Errorf("%w: %s", ErrCampaignExists, dir)
	}
	mb, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("campaign: encoding manifest: %w", err)
	}
	// Manifest first, atomically AND durably: a journal must never exist
	// without the setup record that makes it interpretable (Rule 9). The
	// rename alone is not enough — the temp file's bytes must be fsynced
	// before the rename (or a crash can publish an empty manifest under
	// the final name) and the directory must be fsynced after it (or the
	// rename itself can be lost while the journal's creation survives).
	tmp := mpath + ".tmp"
	if err := writeFileDurable(tmp, append(mb, '\n')); err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	if err := renameFile(tmp, mpath); err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return nil, fmt.Errorf("campaign: syncing directory: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, JournalFile),
		os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	// Make the journal's directory entry durable too, so the on-disk
	// states a crash can leave are exactly: nothing, manifest only, or
	// manifest + journal — never a journal without its manifest.
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, fmt.Errorf("campaign: syncing directory: %w", err)
	}
	j := &Journal{f: f}
	// The format header goes down durably before the first record so
	// every later reader — including one racing a crash — recognises v2
	// from the verified prefix.
	if err := j.writeHeaderV2(); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// writeFileDurable writes data to path and fsyncs the file before
// returning, so a subsequent rename can never publish incomplete bytes.
func writeFileDurable(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(data); err == nil {
		err = fsyncFile(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Load reads a campaign directory without opening it for writing: the
// manifest plus the replayed journal state. Use it to inspect a
// campaign or to audit its integrity. A journal that is neither empty
// nor v2 is refused with ErrNotJournal.
func Load(dir string) (Manifest, State, error) {
	mb, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		if os.IsNotExist(err) {
			return Manifest{}, State{}, fmt.Errorf("%w: %s", ErrNoCampaign, dir)
		}
		return Manifest{}, State{}, fmt.Errorf("campaign: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(mb, &m); err != nil {
		return Manifest{}, State{}, fmt.Errorf("campaign: corrupt manifest: %w", err)
	}
	jb, err := os.ReadFile(filepath.Join(dir, JournalFile))
	if err != nil {
		if os.IsNotExist(err) {
			return m, State{}, nil // campaign created, nothing collected yet
		}
		return m, State{}, fmt.Errorf("campaign: %w", err)
	}
	if !isV2(jb) {
		return m, State{}, fmt.Errorf("%w: %s", ErrNotJournal, filepath.Join(dir, JournalFile))
	}
	return m, Replay(jb), nil
}

// Open reopens an interrupted campaign for appending: it replays the
// journal, truncates any torn tail, and positions the writer after the
// last verified record. A journal Load refuses (ErrNotJournal) is
// refused here too, before the file is opened for writing.
func Open(dir string) (*Journal, Manifest, State, error) {
	m, st, err := Load(dir)
	if err != nil {
		return nil, Manifest{}, State{}, err
	}
	f, err := os.OpenFile(filepath.Join(dir, JournalFile), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, Manifest{}, State{}, fmt.Errorf("campaign: %w", err)
	}
	// Physically drop the torn tail so the journal on disk is exactly
	// its verified prefix, then append after it.
	if err := f.Truncate(st.ValidBytes); err != nil {
		f.Close()
		return nil, Manifest{}, State{}, fmt.Errorf("campaign: truncating torn tail: %w", err)
	}
	if _, err := f.Seek(st.ValidBytes, 0); err != nil {
		f.Close()
		return nil, Manifest{}, State{}, fmt.Errorf("campaign: %w", err)
	}
	j := &Journal{f: f, seq: len(st.Records), good: st.ValidBytes}
	if st.ValidBytes == 0 {
		// The header itself was torn (crash inside Create): lay it down
		// again before appending.
		if err := j.writeHeaderV2(); err != nil {
			f.Close()
			return nil, Manifest{}, State{}, err
		}
	}
	return j, m, st, nil
}

// Record accepts one collection event into the pending chunk, sealing
// it when the group-commit width is reached. Acceptance is the
// acknowledgment the collection loop sees; durability lands at the seal
// (at most chunkRecords-1 trailing events are exposed to an OS crash, a
// clean Close loses none, and resume re-measures them
// deterministically).
//
// A failed seal leaves the journal recoverable: the file is rewound to
// the last durable offset (never leaving a torn fragment mid-file) and
// the accepted records stay pending, so a later Flush or Close seals
// them again. Without the rewind, the next successful seal would land
// after the torn fragment and Replay would drop it and everything
// beyond it as a torn tail.
func (j *Journal) Record(ev bench.Event) error {
	if j.broken != nil {
		return j.broken
	}
	j.pending = append(j.pending, Record{Seq: j.seq + len(j.pending) + 1, Event: ev})
	if len(j.pending) >= chunkRecords {
		return j.seal()
	}
	return nil
}

// rewind restores the journal file to its last durable state after a
// failed append: everything past the rewind floor is a torn or
// unacknowledged fragment that must not precede future appends. If the
// rewind itself fails the journal latches broken — appending past an
// un-truncated fragment would silently orphan every later record.
func (j *Journal) rewind() {
	if err := truncateFile(j.f, j.good); err != nil {
		j.broken = fmt.Errorf("campaign: journal unrecoverable: truncating torn fragment: %w", err)
		return
	}
	if _, err := j.f.Seek(j.good, 0); err != nil {
		j.broken = fmt.Errorf("campaign: journal unrecoverable: repositioning writer: %w", err)
	}
}

// Flush seals any pending chunk. Call it to checkpoint mid-campaign
// without closing.
func (j *Journal) Flush() error {
	if j.broken != nil {
		return j.broken
	}
	return j.seal()
}

// Close flushes and closes the journal file. Pending records are sealed
// first, so a clean shutdown never loses accepted events. A journal
// latched broken is closed without sealing and Close returns the latched
// error: a seal there would land past an un-truncated fragment, where
// Replay drops it as a torn tail, silently losing accepted records.
func (j *Journal) Close() error {
	if j.f == nil {
		return nil
	}
	if j.broken != nil {
		j.f.Close()
		j.f = nil
		return j.broken
	}
	err := j.seal()
	if serr := j.f.Sync(); err == nil {
		err = serr
	}
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}
