// Package regress implements the repo's statistical performance-
// regression gate: it applies the paper's own machinery (median +
// rank-based CIs per Le Boudec, a rank interval on the candidate/
// baseline ratio, Tukey outlier policy) to `go test -bench` sample sets,
// so performance claims about the harness itself are held to Rules 5–8
// instead of eyeballed means from single runs.
//
// The package has two halves: a versioned on-disk format for recorded
// benchmark runs (`BENCH_*.json`, schema v2 with per-run raw samples;
// schema v1 single-run files still parse), and the comparison engine
// that turns a baseline/candidate pair into per-benchmark verdicts.
package regress

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// SchemaVersion is the current `BENCH_*.json` schema. Version 1 (no
// "schema" field; one run per benchmark, metrics as single numbers) is
// still accepted by ParseReport; versions newer than this are refused
// rather than misread.
const SchemaVersion = 2

// Errors returned by the format layer.
var (
	// ErrSchema reports a BENCH file whose schema version is newer than
	// this build understands.
	ErrSchema = errors.New("regress: schema version too new")
	// ErrNoResults reports a report with no benchmark entries.
	ErrNoResults = errors.New("regress: report has no benchmark results")
	// ErrMalformed reports a structurally invalid report (missing ns/op,
	// ragged sample columns, non-finite values, duplicate benchmarks).
	ErrMalformed = errors.New("regress: malformed report")
)

// Report is one recorded benchmark run set: the environment block
// (Rule 9), the requested repetition count, optional provenance, and
// per-benchmark raw samples.
type Report struct {
	// Schema is the format version (SchemaVersion when written by this
	// build; 0 in files that predate the field, i.e. v1).
	Schema int `json:"schema,omitempty"`
	// Env is the Rule 9 environment block: the goos/goarch/cpu header
	// `go test` prints, plus the go version, GOMAXPROCS, CPU count and
	// host recorded at collection time.
	Env map[string]string `json:"env"`
	// Count is the requested number of repetitions (go test -count).
	Count int `json:"count,omitempty"`
	// Provenance records where a committed baseline came from.
	Provenance *Provenance `json:"provenance,omitempty"`
	// Results holds one entry per benchmark, in first-seen order.
	Results []Result `json:"results"`
}

// Provenance documents a baseline's origin so a committed
// `BENCH_*.json` carries its own chain of custody (Rule 9).
type Provenance struct {
	// Commit is the VCS revision the samples were collected at.
	Commit string `json:"commit,omitempty"`
	// Date is the collection time, RFC 3339.
	Date string `json:"date,omitempty"`
	// EnvFingerprint is EnvFingerprint(Env) at collection time; a
	// mismatch against a candidate flags a cross-machine comparison.
	EnvFingerprint string `json:"env_fingerprint,omitempty"`
	// Tool identifies the writer (e.g. "benchjson -count 5").
	Tool string `json:"tool,omitempty"`
}

// Result is one benchmark's repeated measurements: the per-run
// iteration counts and, per metric unit, the per-run raw samples —
// Samples["ns/op"][i] is run i's ns/op.
type Result struct {
	Name       string               `json:"name"`
	Package    string               `json:"package,omitempty"`
	Iterations []int64              `json:"iterations"`
	Samples    map[string][]float64 `json:"samples"`
}

// Key identifies the benchmark across reports (package + name).
func (r Result) Key() string {
	if r.Package == "" {
		return r.Name
	}
	return r.Package + "." + r.Name
}

// Runs returns the number of recorded repetitions.
func (r Result) Runs() int { return len(r.Iterations) }

// Sample returns the raw per-run samples for a metric unit (nil when
// the unit was not recorded).
func (r Result) Sample(unit string) []float64 { return r.Samples[unit] }

// reportV1 is the schema-1 wire shape: one run per benchmark, metrics
// as single numbers.
type reportV1 struct {
	Env     map[string]string `json:"env"`
	Results []struct {
		Name       string             `json:"name"`
		Package    string             `json:"package"`
		Iterations int64              `json:"iterations"`
		Metrics    map[string]float64 `json:"metrics"`
	} `json:"results"`
}

// ParseReport decodes a `BENCH_*.json` document, accepting both the
// current schema v2 and legacy v1 files (which become single-run sample
// sets). The returned report is validated: every benchmark has ns/op
// samples, sample columns are rectangular, and all values are finite.
func ParseReport(data []byte) (*Report, error) {
	var probe struct {
		Schema int `json:"schema"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	if probe.Schema > SchemaVersion {
		return nil, fmt.Errorf("%w: schema %d, this build understands <= %d",
			ErrSchema, probe.Schema, SchemaVersion)
	}
	var rep Report
	if probe.Schema >= SchemaVersion {
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
		}
	} else {
		var v1 reportV1
		if err := json.Unmarshal(data, &v1); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
		}
		rep = upgradeV1(v1)
	}
	if err := rep.Validate(); err != nil {
		return nil, err
	}
	return &rep, nil
}

// LoadReport reads and parses a `BENCH_*.json` file.
func LoadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep, err := ParseReport(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// upgradeV1 lifts a single-run v1 report into the v2 shape: each metric
// value becomes a one-element sample column.
func upgradeV1(v1 reportV1) Report {
	rep := Report{Schema: 1, Env: v1.Env, Count: 1}
	for _, r := range v1.Results {
		res := Result{
			Name:       r.Name,
			Package:    r.Package,
			Iterations: []int64{r.Iterations},
			Samples:    map[string][]float64{},
		}
		for unit, v := range r.Metrics {
			res.Samples[unit] = []float64{v}
		}
		rep.Results = append(rep.Results, res)
	}
	return rep
}

// Validate checks structural soundness: at least one result, ns/op
// present everywhere, rectangular sample columns matching the iteration
// count, finite values, and no duplicate benchmark keys.
func (rep *Report) Validate() error {
	if len(rep.Results) == 0 {
		return ErrNoResults
	}
	seen := make(map[string]bool, len(rep.Results))
	for _, r := range rep.Results {
		if r.Name == "" {
			return fmt.Errorf("%w: result with empty name", ErrMalformed)
		}
		if seen[r.Key()] {
			return fmt.Errorf("%w: duplicate benchmark %q", ErrMalformed, r.Key())
		}
		seen[r.Key()] = true
		runs := len(r.Iterations)
		if runs == 0 {
			return fmt.Errorf("%w: %s has no runs", ErrMalformed, r.Key())
		}
		for _, it := range r.Iterations {
			if it <= 0 {
				return fmt.Errorf("%w: %s has non-positive iteration count", ErrMalformed, r.Key())
			}
		}
		if len(r.Samples["ns/op"]) == 0 {
			return fmt.Errorf("%w: %s has no ns/op samples", ErrMalformed, r.Key())
		}
		for unit, xs := range r.Samples {
			if len(xs) != runs {
				return fmt.Errorf("%w: %s %s has %d samples for %d runs",
					ErrMalformed, r.Key(), unit, len(xs), runs)
			}
			for _, v := range xs {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("%w: %s %s has non-finite sample", ErrMalformed, r.Key(), unit)
				}
			}
		}
	}
	return nil
}

// WriteJSON writes the report as indented JSON, stamping the current
// schema version.
func (rep *Report) WriteJSON(w io.Writer) error {
	rep.Schema = SchemaVersion
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// EnvFingerprint hashes an environment block into a short stable
// identifier: the first 12 hex digits of the SHA-256 over the sorted
// key=value lines. Two runs with the same fingerprint ran in (at least
// nominally) the same environment; comparing across different
// fingerprints is a Rule 9 caveat the gate reports.
func EnvFingerprint(env map[string]string) string {
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s\n", k, env[k])
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:12]
}

// CaptureEnv returns the collector-side Rule 9 environment block: go
// toolchain version, GOOS/GOARCH, GOMAXPROCS, CPU count, and host name.
// The goos/goarch/cpu header lines `go test` prints are merged over
// these by ParseBench.
func CaptureEnv() map[string]string {
	env := map[string]string{
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"numcpu":     strconv.Itoa(runtime.NumCPU()),
	}
	if host, err := os.Hostname(); err == nil {
		env["host"] = host
	}
	return env
}

// ParseBench parses `go test -bench` text output into a schema v2
// report, grouping the repeated result lines a `-count N` run prints
// into per-run sample columns. Header lines (goos/goarch/cpu/pkg) feed
// the environment block and per-benchmark package attribution.
func ParseBench(r io.Reader) (*Report, error) {
	rep := &Report{Schema: SchemaVersion, Env: map[string]string{}}
	index := map[string]int{} // Result.Key() -> index in rep.Results
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"),
			strings.HasPrefix(line, "goarch:"),
			strings.HasPrefix(line, "cpu:"):
			k, v, _ := strings.Cut(line, ":")
			rep.Env[k] = strings.TrimSpace(v)
		case strings.HasPrefix(line, "pkg:"):
			_, v, _ := strings.Cut(line, ":")
			pkg = strings.TrimSpace(v)
		case strings.HasPrefix(line, "Benchmark"):
			name, iters, metrics, ok := parseBenchLine(line)
			if !ok {
				continue // e.g. a benchmark that only printed its name
			}
			key := name
			if pkg != "" {
				key = pkg + "." + name
			}
			i, exists := index[key]
			if !exists {
				i = len(rep.Results)
				index[key] = i
				rep.Results = append(rep.Results, Result{
					Name:    name,
					Package: pkg,
					Samples: map[string][]float64{},
				})
			}
			res := &rep.Results[i]
			res.Iterations = append(res.Iterations, iters)
			for unit, v := range metrics {
				res.Samples[unit] = append(res.Samples[unit], v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := rep.Validate(); err != nil {
		return nil, err
	}
	return rep, nil
}

// parseBenchLine decodes one result line of the form
//
//	BenchmarkName-8   1234   5678 ns/op   90 B/op   3 allocs/op
//
// stripping the trailing -GOMAXPROCS suffix go test appends.
func parseBenchLine(line string) (name string, iters int64, metrics map[string]float64, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return "", 0, nil, false
	}
	name = fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", 0, nil, false
	}
	metrics = map[string]float64{}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", 0, nil, false
		}
		metrics[fields[i+1]] = v
	}
	if _, has := metrics["ns/op"]; !has {
		return "", 0, nil, false
	}
	return name, iters, metrics, true
}
