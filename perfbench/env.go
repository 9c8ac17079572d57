package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// envRecord is the run's Rule 9 record: what a reader needs to interpret
// the numbers, printed on the line before the result.
type envRecord struct {
	Workload    string  `json:"workload"`
	Seed        uint64  `json:"seed"`
	HeldOutSeed uint64  `json:"held_out_seed"`
	Seconds     float64 `json:"seconds"`
	Trace       bool    `json:"trace"`
	NumCPU      int     `json:"num_cpu"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	Platform    string  `json:"platform"`
	CPUModel    string  `json:"cpu_model"`
	Kernel      string  `json:"kernel"`
	// ScratchFS is the filesystem type of the scratch directory the
	// journals are written and fsynced in; what fsync costs depends on it.
	ScratchFS string `json:"scratch_fs"`
	// Commit is the checked-out commit when the checkout is a git work
	// tree; SourceSHA256 identifies the measured code either way.
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
}

func ruleNine(opt options, scratch string) envRecord {
	return envRecord{
		Workload:     opt.workload,
		Seed:         opt.seed,
		HeldOutSeed:  heldOutSeed,
		Seconds:      opt.seconds,
		Trace:        opt.trace,
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Platform:     runtime.GOOS + "/" + runtime.GOARCH,
		CPUModel:     cpuModel(),
		Kernel:       firstLine("/proc/sys/kernel/osrelease"),
		ScratchFS:    fsType(scratch),
		Commit:       gitCommit(opt.root),
		SourceSHA256: sourceDigest(opt.root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func firstLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return strings.TrimSpace(line)
}

// fsMagic names the statfs magic numbers of common filesystems.
var fsMagic = map[int64]string{
	0xEF53:     "ext4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x01021994: "tmpfs",
	0x794C7630: "overlayfs",
	0x6969:     "nfs",
	0x2FC12FC1: "zfs",
	0x01021997: "9p",
	0x65735546: "fuse",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// gitCommit resolves HEAD by reading .git directly, without running git.
func gitCommit(root string) string {
	git := filepath.Join(root, ".git")
	head := firstLine(filepath.Join(git, "HEAD"))
	ref, isRef := strings.CutPrefix(head, "ref: ")
	if !isRef {
		if head == "unknown" {
			return "none (not a git work tree)"
		}
		return head
	}
	if c := firstLine(filepath.Join(git, ref)); c != "unknown" {
		return c
	}
	packed, err := os.ReadFile(filepath.Join(git, "packed-refs"))
	if err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if c, r, ok := strings.Cut(line, " "); ok && r == ref {
				return c
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes the path and bytes of every Go source file and
// module file in the checkout, skipping hidden directories.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") && d.Name() != "go.mod" && d.Name() != "go.sum" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
