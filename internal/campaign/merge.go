package campaign

import "repro/internal/rules"

// LoadVerified is the merge reader: it loads a unit campaign directory
// and verifies the recorded manifest against the manifest the caller
// expects (built from the sweep's unit table), refusing with an
// ErrManifestDrift error that names exactly which fields mismatch. It
// is the read-side counterpart of CheckResume — a merged report must
// never pool a journal whose recorded setup drifted from the sweep that
// claims it (Rule 9).
//
// The journal's verified prefix is returned even on drift so a refusing
// merge can still report what the drifted directory contained.
func LoadVerified(dir string, want Manifest) (Manifest, State, []rules.Finding, error) {
	recorded, st, err := Load(dir)
	if err != nil {
		return Manifest{}, State{}, nil, err
	}
	if ds := DriftFields(recorded, want); len(ds) > 0 {
		return recorded, st, driftFindings(ds, "merge"), driftError(ds)
	}
	return recorded, st, nil, nil
}
