package shard

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/rules"
)

// seamAlpha is the significance level of the cross-shard seam check —
// the same 1% the suspend/resume boundary check uses.
const seamAlpha = 0.01

// mergeConfidence is the confidence level of the merged report's
// per-unit intervals. It is fixed (not read from per-unit plans) so the
// merged report is a pure function of the journal bytes.
const mergeConfidence = 0.95

// UnitReport is one unit's contribution to a merged report, recomputed
// entirely from its journal (the completion sentinel is trusted only as
// a completion marker).
type UnitReport struct {
	Unit  Unit
	Shard int
	// Started: the unit's campaign directory exists. Completed: its
	// completion sentinel does, and its journal replays exactly the
	// sentinel's sample count. Lost: not completed — its shard was
	// abandoned (or the sweep merged early, or its journal disagrees
	// with its sentinel); the unit's missing observations are explicit
	// losses, never silent gaps.
	Started   bool
	Completed bool
	Lost      bool
	// Torn reports a dropped torn tail in the unit's journal.
	Torn bool
	// Stop is the completion verdict from the sentinel ("" when lost).
	Stop bench.StopReason
	// Replay accounting, recomputed from the journal.
	N       int
	Warmup  int
	Retries int
	Losses  int
	Panics  int
	// Analysis is bench.Analyze over the journaled samples at the merge
	// confidence; Analyzed is false when too few samples survived.
	Analysis bench.Result
	Analyzed bool
	// EnvFingerprint is the hash of the environment recorded in the
	// unit's manifest (the executor that measured it).
	EnvFingerprint string

	samples []float64
	// sentinelN is the sample count of a completion sentinel the
	// journal disagrees with; -1 when there is no such sentinel.
	sentinelN int
}

// ShardReport summarizes one shard in the merged manifest: its env
// fingerprint is the Rule 9 record of which environment its executor
// measured in; Host/HostFingerprint name the machine when the shard ran
// under a remote worker (absent for single-machine runs).
type ShardReport struct {
	Index           int    `json:"index"`
	Units           int    `json:"units"`
	Completed       bool   `json:"completed"`
	Attempt         int    `json:"attempt,omitempty"` // completing attempt
	EnvFingerprint  string `json:"env_fingerprint,omitempty"`
	Host            string `json:"host,omitempty"`
	HostFingerprint string `json:"host_fingerprint,omitempty"`
}

// HostFile records, inside a shard directory, which machine's worker
// completed the shard — written by the remote coordinator, absent for
// local executors. It feeds merge-time stratification, never the
// canonical report bytes.
const HostFile = "host.json"

// HostRecord is the per-shard host provenance (host.json).
type HostRecord struct {
	Hostname       string `json:"hostname"`
	EnvFingerprint string `json:"env_fingerprint"`
	WorkerID       string `json:"worker_id,omitempty"`
	Addr           string `json:"addr,omitempty"`
	Attempt        int    `json:"attempt,omitempty"`
}

// WriteHost records host provenance into a shard directory.
func WriteHost(shardDir string, h HostRecord) error {
	return WriteJSON(filepath.Join(shardDir, HostFile), h)
}

// LoadHost reads a shard's host provenance; ok is false when the shard
// ran locally (no record).
func LoadHost(shardDir string) (HostRecord, bool) {
	var h HostRecord
	if err := readJSON(filepath.Join(shardDir, HostFile), &h); err != nil {
		return HostRecord{}, false
	}
	return h, true
}

// HostStratum groups the shards one host measured — the stratification
// unit for cross-host comparisons (Kalibera & Jones: treat per-host
// heterogeneity as a blocking factor, not noise).
type HostStratum struct {
	HostFingerprint string  `json:"host_fingerprint"`
	Host            string  `json:"host,omitempty"`
	Shards          []int   `json:"shards"`
	Units           int     `json:"units"`
	Samples         int     `json:"samples"`
	MedianDev       float64 `json:"median_dev"` // median |v/median(unit)−1| within the stratum
}

// SeamCheck is the Rule 6 contamination check at one merge seam: a
// Pettitt change-point test over the median-normalized concatenated
// sample stream, asking whether a significant shift localizes exactly
// at the boundary between two shards — the signature of one executor
// measuring in a drifted environment.
type SeamCheck struct {
	Left     int     `json:"left"`
	Right    int     `json:"right"`
	Boundary int     `json:"boundary"` // sample index of the seam
	P        float64 `json:"p"`
	Drift    bool    `json:"drift"`
	Checked  bool    `json:"checked"`
	// CrossHost marks a seam whose two shards ran on different hosts. A
	// shift there is stratified (expected between-machines variation,
	// reported per stratum) rather than flagged as contamination — the
	// same shift between same-host shards keeps its Rule 6 alarm.
	CrossHost bool `json:"cross_host,omitempty"`
}

// MergeReport is a merged sweep: per-unit analyses in canonical order,
// per-shard records, seam checks, and explicit loss accounting.
type MergeReport struct {
	Sweep    SweepManifest
	Units    []UnitReport
	Shards   []ShardReport
	Seams    []SeamCheck
	Strata   []HostStratum // one per distinct host fingerprint, ≥2 hosts only
	Findings []rules.Finding

	UnitsMeasured int
	UnitsLost     int
	// Stop is the campaign-level verdict: StopDegraded when any unit was
	// lost, empty when every unit was measured.
	Stop bench.StopReason
}

// Merge reads a sweep directory and merges its shard journals into one
// report. It refuses (Rule 9) when a shard manifest drifted from the
// sweep or a unit journal's recorded manifest drifted from the unit the
// sweep pinned — naming exactly which fields mismatch. Units whose
// shards were abandoned surface as explicit losses and degrade the
// campaign verdict; they never fail the merge.
//
// The merged per-unit numbers are recomputed purely from journal bytes,
// so the canonical report (WriteReport) is byte-identical however many
// executors measured the sweep and however many times shards were
// reassigned.
func Merge(sweepDir string) (*MergeReport, error) {
	sw, err := LoadSweep(sweepDir)
	if err != nil {
		return nil, err
	}
	rep := &MergeReport{Sweep: sw}
	for _, want := range sw.Shards() {
		dir := filepath.Join(sweepDir, ShardDirName(want.Index))
		got, err := LoadManifest(dir)
		if err != nil {
			return nil, err
		}
		if err := checkShardManifest(got, want); err != nil {
			return nil, fmt.Errorf("%s: %w", ShardDirName(want.Index), err)
		}
		sr := ShardReport{Index: want.Index, Units: len(want.Units)}
		if d, ok := LoadDone(dir); ok {
			sr.Completed = true
			sr.Attempt = d.Attempt
		}
		if h, ok := LoadHost(dir); ok {
			sr.Host = h.Hostname
			sr.HostFingerprint = h.EnvFingerprint
		}
		for _, u := range want.Units {
			ur, err := mergeUnit(dir, sw, want.Index, u)
			if err != nil {
				return nil, fmt.Errorf("shard %d unit %s: %w", want.Index, u.ID, err)
			}
			if sr.EnvFingerprint == "" {
				sr.EnvFingerprint = ur.EnvFingerprint
			} else if ur.EnvFingerprint != "" && ur.EnvFingerprint != sr.EnvFingerprint {
				rep.Findings = append(rep.Findings, rules.Finding{
					Rule:     9,
					Severity: rules.Warning,
					Message: fmt.Sprintf("shard %d: unit %s was measured under a different environment "+
						"fingerprint (%s) than its shard siblings (%s): executors drifted mid-shard",
						want.Index, u.ID, short(ur.EnvFingerprint), short(sr.EnvFingerprint)),
				})
			}
			rep.Units = append(rep.Units, ur)
		}
		rep.Shards = append(rep.Shards, sr)
	}
	rep.account()
	rep.checkSeams()
	rep.buildStrata()
	return rep, nil
}

// checkShardManifest verifies a shard directory's recorded manifest
// against the one the sweep implies, naming every drifted field. The
// Journal format field is deliberately not compared: it is storage,
// not experiment identity — shards journaled in different formats
// still merge to the same report (the merge replays journal records,
// whatever bytes encode them).
func checkShardManifest(got, want Manifest) error {
	var fields []string
	mismatch := func(field, rec, cur string) {
		fields = append(fields, fmt.Sprintf("%s (recorded %s, expected %s)", field, rec, cur))
	}
	if got.Version != want.Version {
		mismatch("shard format version", fmt.Sprintf("v%d", got.Version), fmt.Sprintf("v%d", want.Version))
	}
	if got.SweepHash != want.SweepHash {
		mismatch("sweep hash", short(got.SweepHash), short(want.SweepHash))
	}
	if got.FaultFingerprint != want.FaultFingerprint {
		mismatch("fault-schedule fingerprint", short(got.FaultFingerprint), short(want.FaultFingerprint))
	}
	if got.Index != want.Index {
		mismatch("shard index", fmt.Sprint(got.Index), fmt.Sprint(want.Index))
	}
	if len(got.Units) != len(want.Units) {
		mismatch("unit count", fmt.Sprint(len(got.Units)), fmt.Sprint(len(want.Units)))
	} else {
		for i := range got.Units {
			if got.Units[i].ID != want.Units[i].ID || got.Units[i].Seed != want.Units[i].Seed ||
				got.Units[i].ConfigHash != want.Units[i].ConfigHash {
				mismatch("unit "+want.Units[i].ID, "drifted spec", "sweep spec")
			}
		}
	}
	if len(fields) == 0 {
		return nil
	}
	return fmt.Errorf("%w: mismatched field(s): %s", ErrShardDrift, joinSemi(fields))
}

// mergeUnit loads and verifies one unit's journal against the manifest
// the sweep pins for it, then recomputes its accounting and analysis.
func mergeUnit(shardDir string, sw SweepManifest, shardIdx int, u Unit) (UnitReport, error) {
	ur := UnitReport{Unit: u, Shard: shardIdx, sentinelN: -1}
	dir := UnitDir(shardDir, u.ID)
	want := campaign.Manifest{
		Version:          campaign.FormatVersion,
		Seed:             u.Seed,
		ConfigHash:       u.ConfigHash,
		FaultFingerprint: sw.FaultFingerprint,
		Sweep:            &campaign.SweepRef{SweepHash: sw.SweepHash, UnitID: u.ID, Shard: shardIdx},
	}
	recorded, st, _, err := campaign.LoadVerified(dir, want)
	switch {
	case err == nil:
	case isNoCampaign(err):
		return ur, nil // never started: a pure loss
	default:
		return ur, err // drift (named fields) or corrupt directory: refuse the merge
	}
	ur.Started = true
	ur.Torn = st.Torn
	if fp, err := campaign.HashJSON(recorded.Environment); err == nil {
		ur.EnvFingerprint = fp
	}
	rp := bench.ReplayEvents(st.Events(), 0)
	ur.samples = rp.Samples
	ur.N = len(rp.Samples)
	ur.Warmup, ur.Retries, ur.Losses, ur.Panics = rp.Warmup, rp.Retries, rp.Losses, rp.Panics
	if d, ok := loadUnitDone(dir); ok {
		if d.N == ur.N {
			ur.Completed = true
			ur.Stop = d.Stop
		} else {
			ur.sentinelN = d.N
		}
	}
	if len(ur.samples) >= 2 {
		if res, err := bench.Analyze(ur.samples, mergeConfidence); err == nil {
			ur.Analysis = res
			ur.Analyzed = true
		}
	}
	return ur, nil
}

func isNoCampaign(err error) bool {
	return errors.Is(err, campaign.ErrNoCampaign)
}

// account fills the loss accounting and campaign verdict: every unit
// without a completion sentinel that its journal agrees with is an
// explicit loss (Rule 4 — the failures are data), and any loss degrades
// the campaign.
func (r *MergeReport) account() {
	for i := range r.Units {
		u := &r.Units[i]
		if u.Completed {
			r.UnitsMeasured++
			continue
		}
		u.Lost = true
		r.UnitsLost++
		msg := fmt.Sprintf("unit %s (shard %d) was lost: %d of its observations were journaled "+
			"before its shard was abandoned; the merged report carries the loss explicitly",
			u.Unit.ID, u.Shard, u.N)
		if u.sentinelN >= 0 {
			msg = fmt.Sprintf("unit %s (shard %d) was lost: its completion sentinel records n=%d "+
				"but its journal replays %d observations; the merged report carries the loss explicitly",
				u.Unit.ID, u.Shard, u.sentinelN, u.N)
		}
		r.Findings = append(r.Findings, rules.Finding{Rule: 4, Severity: rules.Warning, Message: msg})
	}
	if r.UnitsLost > 0 {
		r.Stop = bench.StopDegraded
	}
}

// checkSeams runs the Rule 6 contamination check at every shard
// boundary. Units are concatenated in canonical order, each sample
// mapped to its absolute relative deviation |v/median(unit) − 1| — a
// dimensionless dispersion stream in which per-config scale cancels.
// The mapping matters: median-normalized values themselves are useless
// here, because normalization forces every unit to carry equal mass
// above and below 1, so a rank test across the seam cancels to zero no
// matter how contaminated one side is. In deviation space the
// signatures of shared-machine contamination (EXPERIMENTS.md) —
// intermittent interference spikes, heavy-tail growth, noise blowup,
// additive offsets — all become a location shift that Pettitt
// localizes at the seam. A perfectly uniform multiplicative slowdown
// is scale-free and stays invisible by construction: without
// cross-config priors it is indistinguishable from per-config scale,
// which is why the merged manifest also records per-shard env
// fingerprints (Rule 9) as the complementary defense.
func (r *MergeReport) checkSeams() {
	var stream []float64
	// start[i] = index in stream where shard i's samples start;
	// firstLen/lastLen give the widths of the units adjacent to each
	// seam, the localization resolution of the check (contamination is
	// unit-granular: an executor runs whole units).
	start := map[int]int{}
	firstLen := map[int]int{}
	lastLen := map[int]int{}
	last := -1
	for _, u := range r.Units {
		if u.Shard != last {
			start[u.Shard] = len(stream)
			firstLen[u.Shard] = len(u.samples)
			last = u.Shard
		}
		lastLen[u.Shard] = len(u.samples)
		if len(u.samples) == 0 {
			continue
		}
		med := median(u.samples)
		if med == 0 {
			med = 1
		}
		for _, v := range u.samples {
			d := v/med - 1
			if d < 0 {
				d = -d
			}
			stream = append(stream, d)
		}
	}
	for i := 0; i+1 < len(r.Shards); i++ {
		left, right := r.Shards[i].Index, r.Shards[i+1].Index
		b, ok := start[right]
		sc := SeamCheck{Left: left, Right: right, Boundary: b}
		lh, rh := r.hostKey(i), r.hostKey(i+1)
		sc.CrossHost = lh != rh && lh != "" && rh != ""
		win := lastLen[left]
		if firstLen[right] > win {
			win = firstLen[right]
		}
		if ok && b > 0 && b < len(stream) {
			if cp, drift, err := campaign.BoundaryShiftWin(stream, b, seamAlpha, win); err == nil {
				sc.Checked = true
				sc.P = cp.P
				sc.Drift = drift
				switch {
				case drift && sc.CrossHost:
					// Different machines legitimately differ; the shift is
					// stratified instead of alarmed — the merged per-unit
					// numbers stay valid (per-unit seeds and medians), but
					// any comparison pooling across this seam must block by
					// host stratum.
					r.Findings = append(r.Findings, rules.Finding{
						Rule:     9,
						Severity: rules.Pass,
						Message: fmt.Sprintf("shift at the merge seam between shard %d (host %s) and shard %d "+
							"(host %s) (sample %d, p ≈ %.3g): the shards ran on different hosts; stratifying by "+
							"host fingerprint — compare per-host strata rather than pooling across this seam",
							left, short(lh), right, short(rh), cp.Index, cp.P),
					})
				case drift:
					r.Findings = append(r.Findings, rules.Finding{
						Rule:     6,
						Severity: rules.Warning,
						Message: fmt.Sprintf("regime shift at the merge seam between shard %d and shard %d "+
							"(sample %d, p ≈ %.3g): the executors measured in drifted environments; "+
							"quarantine the shards instead of pooling them", left, right, cp.Index, cp.P),
					})
				}
			}
		}
		r.Seams = append(r.Seams, sc)
	}
}

// hostKey identifies the machine that measured shard position i (index
// into r.Shards): the host fingerprint when a remote worker recorded
// one, the executor env fingerprint otherwise. Empty means unknown.
func (r *MergeReport) hostKey(i int) string {
	if r.Shards[i].HostFingerprint != "" {
		return r.Shards[i].HostFingerprint
	}
	return r.Shards[i].EnvFingerprint
}

// buildStrata groups shards by host fingerprint and summarizes each
// stratum's deviation stream. Strata stay empty unless at least two
// distinct hosts measured the sweep — single-machine sweeps have
// nothing to stratify.
func (r *MergeReport) buildStrata() {
	keys := map[string]*HostStratum{}
	var order []string
	for i := range r.Shards {
		k := r.hostKey(i)
		if k == "" {
			continue
		}
		st, ok := keys[k]
		if !ok {
			st = &HostStratum{HostFingerprint: k, Host: r.Shards[i].Host}
			keys[k] = st
			order = append(order, k)
		}
		st.Shards = append(st.Shards, r.Shards[i].Index)
		st.Units += r.Shards[i].Units
	}
	if len(order) < 2 {
		return
	}
	devs := map[string][]float64{}
	for i := range r.Units {
		u := &r.Units[i]
		if len(u.samples) == 0 {
			continue
		}
		k := ""
		for j := range r.Shards {
			if r.Shards[j].Index == u.Shard {
				k = r.hostKey(j)
				break
			}
		}
		if k == "" {
			continue
		}
		med := median(u.samples)
		if med == 0 {
			med = 1
		}
		for _, v := range u.samples {
			d := v/med - 1
			if d < 0 {
				d = -d
			}
			devs[k] = append(devs[k], d)
		}
	}
	for _, k := range order {
		st := keys[k]
		st.Samples = len(devs[k])
		st.MedianDev = median(devs[k])
		r.Strata = append(r.Strata, *st)
	}
}

// median of xs (xs is not modified).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// MergedManifest is the merged sweep record (merged.json): the sweep
// identity plus the per-shard Rule 9 environment fingerprints and the
// loss accounting — the provenance a merged report must ship with.
type MergedManifest struct {
	SweepHash        string           `json:"sweep_hash"`
	Name             string           `json:"name,omitempty"`
	FaultFingerprint string           `json:"fault_fingerprint"`
	Shards           []ShardReport    `json:"shards"`
	Seams            []SeamCheck      `json:"seams,omitempty"`
	Strata           []HostStratum    `json:"strata,omitempty"`
	UnitsMeasured    int              `json:"units_measured"`
	UnitsLost        int              `json:"units_lost"`
	Stop             bench.StopReason `json:"stop,omitempty"`
	MergedAt         time.Time        `json:"merged_at"`
}

// WriteMerged persists the merged manifest into the sweep directory.
func WriteMerged(sweepDir string, r *MergeReport) error {
	return WriteJSON(filepath.Join(sweepDir, MergedFile), MergedManifest{
		SweepHash:        r.Sweep.SweepHash,
		Name:             r.Sweep.Name,
		FaultFingerprint: r.Sweep.FaultFingerprint,
		Shards:           r.Shards,
		Seams:            r.Seams,
		Strata:           r.Strata,
		UnitsMeasured:    r.UnitsMeasured,
		UnitsLost:        r.UnitsLost,
		Stop:             r.Stop,
		MergedAt:         time.Now().UTC(),
	})
}

// WriteReport writes the canonical merged report: a pure function of
// the sweep identity and the journal bytes, with nothing
// partition-dependent in it (no shard column, no attempt counts, no
// seam diagnostics) — so the bytes are identical whether the sweep ran
// in one process or across N crash-prone executors. Partition-dependent
// operations detail goes in WriteOps.
func (r *MergeReport) WriteReport(w io.Writer) error {
	ew := &errWriter{w: w}
	name := r.Sweep.Name
	if name == "" {
		name = "sweep"
	}
	ew.printf("%s: %d unit(s), sweep %s\n", name, len(r.Units), short(r.Sweep.SweepHash))
	ew.printf("| unit | n | median | %d%% CI (median) | stop |\n", int(mergeConfidence*100))
	ew.printf("|---|---|---|---|---|\n")
	for i := range r.Units {
		u := &r.Units[i]
		switch {
		case u.Lost:
			ew.printf("| %s | %d | — | — | LOST |\n", u.Unit.ID, u.N)
		case u.Analyzed:
			ew.printf("| %s | %d | %.6g | [%.6g, %.6g] | %s |\n", u.Unit.ID, u.N,
				u.Analysis.Summary.Median, u.Analysis.MedianCI.Lo, u.Analysis.MedianCI.Hi, u.Stop)
		default:
			ew.printf("| %s | %d | — | — | %s |\n", u.Unit.ID, u.N, u.Stop)
		}
	}
	var retries, losses, panics int
	for i := range r.Units {
		retries += r.Units[i].Retries
		losses += r.Units[i].Losses
		panics += r.Units[i].Panics
	}
	ew.printf("accounting: %d sample(s) lost, %d retried, %d panic(s) across %d unit(s)\n",
		losses, retries, panics, len(r.Units))
	if r.UnitsLost > 0 {
		ew.printf("verdict: DEGRADED (%s) — %d/%d unit(s) measured, %d LOST\n",
			bench.StopDegraded, r.UnitsMeasured, len(r.Units), r.UnitsLost)
	} else {
		ew.printf("verdict: COMPLETE — %d/%d unit(s) measured\n", r.UnitsMeasured, len(r.Units))
	}
	return ew.err
}

// WriteOps writes the distribution addendum: which shards ran where,
// under which environment fingerprints, with which attempt counts, and
// what the seam checks found. These facts are real — and deliberately
// excluded from the canonical report, because they depend on the
// partition and the failures, not the experiment.
func (r *MergeReport) WriteOps(w io.Writer) error {
	ew := &errWriter{w: w}
	ew.printf("distribution: %d shard(s)\n", len(r.Shards))
	ew.printf("| shard | units | completed | attempt | env fingerprint | host |\n")
	ew.printf("|---|---|---|---|---|---|\n")
	for _, s := range r.Shards {
		done := "yes"
		if !s.Completed {
			done = "NO (lost)"
		}
		host := s.Host
		if host == "" {
			host = "local"
		}
		ew.printf("| %d | %d | %s | %d | %s | %s |\n", s.Index, s.Units, done, s.Attempt,
			short(s.EnvFingerprint), host)
	}
	for _, sc := range r.Seams {
		switch {
		case !sc.Checked:
			ew.printf("seam %d|%d: not checked (too few samples)\n", sc.Left, sc.Right)
		case sc.Drift && sc.CrossHost:
			ew.printf("seam %d|%d: shift at sample %d (p ≈ %.3g) across a host boundary — stratified\n",
				sc.Left, sc.Right, sc.Boundary, sc.P)
		case sc.Drift:
			ew.printf("seam %d|%d: REGIME SHIFT at sample %d (p ≈ %.3g)\n", sc.Left, sc.Right, sc.Boundary, sc.P)
		default:
			ew.printf("seam %d|%d: no shift (p ≈ %.3g)\n", sc.Left, sc.Right, sc.P)
		}
	}
	if len(r.Strata) > 0 {
		ew.printf("host strata: %d\n", len(r.Strata))
		ew.printf("| host | fingerprint | shards | units | samples | median dev |\n")
		ew.printf("|---|---|---|---|---|---|\n")
		for _, st := range r.Strata {
			host := st.Host
			if host == "" {
				host = "?"
			}
			ew.printf("| %s | %s | %v | %d | %d | %.4g |\n", host, short(st.HostFingerprint),
				st.Shards, st.Units, st.Samples, st.MedianDev)
		}
	}
	for _, f := range r.Findings {
		ew.printf("[rule %d %s] %s\n", f.Rule, f.Severity, f.Message)
	}
	return ew.err
}

// errWriter latches the first write error so report writers read
// linearly.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}

func joinSemi(xs []string) string {
	out := ""
	for i, x := range xs {
		if i > 0 {
			out += "; "
		}
		out += x
	}
	return out
}
