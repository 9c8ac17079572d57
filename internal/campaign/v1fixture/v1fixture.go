// Package v1fixture lays campaign journal records down in the retired
// v1 encoding: one {"crc":<crc32>,"rec":<record>} JSON line per record,
// the CRC32 (IEEE) taken over the record bytes. Nothing in the program
// writes v1 any more; tests import this package to produce v1 bytes for
// the read-only v1 path (replay, convert, dump, merge).
package v1fixture

import (
	"encoding/json"
	"hash/crc32"
	"os"
)

// Encode returns recs as v1 journal bytes.
func Encode[R any](recs []R) ([]byte, error) {
	var out []byte
	for _, r := range recs {
		rb, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		lb, err := json.Marshal(struct {
			CRC uint32          `json:"crc"`
			Rec json.RawMessage `json:"rec"`
		}{crc32.ChecksumIEEE(rb), rb})
		if err != nil {
			return nil, err
		}
		out = append(append(out, lb...), '\n')
	}
	return out, nil
}

// Write replaces the file at path with recs as v1 journal bytes and
// returns its size.
func Write[R any](path string, recs []R) (int64, error) {
	b, err := Encode(recs)
	if err != nil {
		return 0, err
	}
	return int64(len(b)), os.WriteFile(path, b, 0o644)
}
