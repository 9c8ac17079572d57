package campaign

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCreateManifestCrashDurability pins the write-ahead ordering Create
// promises by recording every fsync and rename through the seams. The
// on-disk states a crash can leave must be exactly: nothing, manifest
// only, or manifest + journal — never a journal without a durable
// manifest, and never a renamed manifest whose bytes were not yet
// flushed. Before the fix, Create fsynced nothing at all, so the rename
// could publish an empty manifest and the journal could survive a crash
// that lost the manifest entirely.
func TestCreateManifestCrashDurability(t *testing.T) {
	origFsync, origRename := fsyncFile, renameFile
	defer func() { fsyncFile, renameFile = origFsync, origRename }()

	dir := t.TempDir()
	journalPath := filepath.Join(dir, JournalFile)
	manifestPath := filepath.Join(dir, ManifestFile)
	journalExists := func() bool {
		_, err := os.Stat(journalPath)
		return err == nil
	}

	var ops []string
	fsyncFile = func(f *os.File) error {
		switch name := f.Name(); {
		case name == dir:
			if journalExists() {
				ops = append(ops, "fsync-dir-with-journal")
			} else {
				ops = append(ops, "fsync-dir")
			}
		case strings.HasSuffix(name, ".tmp"):
			ops = append(ops, "fsync-tmp")
		case name == journalPath:
			ops = append(ops, "fsync-journal")
		default:
			ops = append(ops, "fsync-"+filepath.Base(name))
		}
		return f.Sync()
	}
	renameFile = func(oldpath, newpath string) error {
		ops = append(ops, "rename")
		if journalExists() {
			t.Error("journal existed before the manifest rename: a crash here leaves an uninterpretable journal")
		}
		return os.Rename(oldpath, newpath)
	}

	j, err := Create(dir, testManifest(t, 1, testConfig{System: "quiet"}, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	// The full durability protocol, in order: flush the temp manifest's
	// bytes, publish it atomically, make the rename itself durable, and
	// only then create the journal — whose directory entry is flushed
	// too, followed by its format header.
	want := []string{"fsync-tmp", "rename", "fsync-dir", "fsync-dir-with-journal", "fsync-journal"}
	if got := strings.Join(ops, ","); got != strings.Join(want, ",") {
		t.Fatalf("durability op order = %v, want %v", ops, want)
	}
	if _, err := os.Stat(manifestPath); err != nil {
		t.Fatalf("manifest missing after Create: %v", err)
	}
}

// TestCreateManifestDurableBeforeJournal is the crash simulation: fail
// the directory fsync that seals the manifest rename and require Create
// to refuse to proceed — in particular, to never have created the
// journal file.
func TestCreateManifestDurableBeforeJournal(t *testing.T) {
	origFsync := fsyncFile
	defer func() { fsyncFile = origFsync }()

	dir := t.TempDir()
	fsyncFile = func(f *os.File) error {
		if f.Name() == dir {
			return os.ErrInvalid // simulated crash/IO failure at the seal
		}
		return f.Sync()
	}

	if _, err := Create(dir, testManifest(t, 1, testConfig{System: "quiet"}, nil)); err == nil {
		t.Fatal("Create succeeded despite the directory fsync failing")
	}
	if _, err := os.Stat(filepath.Join(dir, JournalFile)); !os.IsNotExist(err) {
		t.Errorf("journal exists although the manifest was never made durable (stat err = %v)", err)
	}
}
