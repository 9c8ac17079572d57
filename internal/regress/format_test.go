package regress

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

const v1Doc = `{
  "env": {"goos": "linux", "goarch": "amd64", "cpu": "Test CPU"},
  "results": [
    {"name": "BenchmarkFoo", "package": "repro", "iterations": 100, "metrics": {"ns/op": 1234, "B/op": 64, "allocs/op": 2}},
    {"name": "BenchmarkBar", "package": "repro", "iterations": 50, "metrics": {"ns/op": 99.5}}
  ]
}`

// TestParseReportV1: a schema-1 file (one run per benchmark) is refused,
// not upgraded to one-run columns no ratio interval can be formed from.
func TestParseReportV1(t *testing.T) {
	if _, err := ParseReport([]byte(v1Doc)); !errors.Is(err, ErrSchema) {
		t.Fatalf("schema-1 file: err = %v, want ErrSchema", err)
	}
}

func TestParseReportV2RoundTrip(t *testing.T) {
	rep := &Report{
		Env:   map[string]string{"goos": "linux", "go": "go1.24.0"},
		Count: 3,
		Provenance: &Provenance{
			Commit: "abc123", Date: "2026-08-05T00:00:00Z",
			EnvFingerprint: EnvFingerprint(map[string]string{"goos": "linux", "go": "go1.24.0"}),
			Tool:           "benchjson -count 3",
		},
		Results: []Result{{
			Name:       "BenchmarkFoo",
			Package:    "repro",
			Iterations: []int64{100, 120, 110},
			Samples: map[string][]float64{
				"ns/op":     {1000, 1010, 990},
				"allocs/op": {2, 2, 2},
			},
		}},
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ParseReport(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != SchemaVersion {
		t.Errorf("schema = %d, want %d", got.Schema, SchemaVersion)
	}
	if got.Count != 3 || got.Provenance == nil || got.Provenance.Commit != "abc123" {
		t.Errorf("count/provenance not preserved: %+v", got)
	}
	r := got.Results[0]
	if r.Runs() != 3 {
		t.Fatalf("runs = %d, want 3", r.Runs())
	}
	if s := r.Sample("ns/op"); len(s) != 3 || s[1] != 1010 {
		t.Errorf("ns/op = %v", s)
	}
}

func TestParseReportErrors(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want error
	}{
		{"not json", `{"env": `, ErrMalformed},
		{"schema too new", `{"schema": 99, "results": [{"name":"B","iterations":[1],"samples":{"ns/op":[1]}}]}`, ErrSchema},
		{"no results", `{"schema": 2, "results": []}`, ErrNoResults},
		{"no results v1", `{"env": {}}`, ErrSchema},
		{"empty name", `{"schema": 2, "results": [{"name":"","iterations":[1],"samples":{"ns/op":[1]}}]}`, ErrMalformed},
		{"no runs", `{"schema": 2, "results": [{"name":"B","iterations":[],"samples":{"ns/op":[1]}}]}`, ErrMalformed},
		{"zero iterations", `{"schema": 2, "results": [{"name":"B","iterations":[0],"samples":{"ns/op":[1]}}]}`, ErrMalformed},
		{"no ns/op", `{"schema": 2, "results": [{"name":"B","iterations":[1],"samples":{"B/op":[1]}}]}`, ErrMalformed},
		{"ragged", `{"schema": 2, "results": [{"name":"B","iterations":[1,2],"samples":{"ns/op":[1,2],"B/op":[1]}}]}`, ErrMalformed},
		{"ns/op shorter than runs", `{"schema": 2, "results": [{"name":"B","iterations":[1,2],"samples":{"ns/op":[1]}}]}`, ErrMalformed},
		{"duplicate", `{"schema": 2, "results": [
			{"name":"B","iterations":[1],"samples":{"ns/op":[1]}},
			{"name":"B","iterations":[1],"samples":{"ns/op":[2]}}]}`, ErrMalformed},
		{"non-finite", `{"schema": 2, "results": [{"name":"B","iterations":[1],"samples":{"ns/op":["NaN"]}}]}`, ErrMalformed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseReport([]byte(tc.doc))
			if !errors.Is(err, tc.want) {
				t.Errorf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

const benchText = `goos: linux
goarch: amd64
pkg: repro
cpu: Test CPU @ 2.10GHz
BenchmarkFoo-8   	    1000	      1100 ns/op	      64 B/op	       2 allocs/op
BenchmarkBar/j=1-8   	     500	      2000 ns/op
BenchmarkFoo-8   	    1100	      1050 ns/op	      64 B/op	       2 allocs/op
BenchmarkBar/j=1-8   	     510	      2020 ns/op
BenchmarkFoo-8   	     990	      1150 ns/op	      64 B/op	       2 allocs/op
BenchmarkBar/j=1-8   	     495	      1980 ns/op
PASS
ok  	repro	1.234s
`

func TestParseBenchGroupsRepetitions(t *testing.T) {
	rep, err := ParseBench(strings.NewReader(benchText))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("got %d results, want 2 (grouped)", len(rep.Results))
	}
	foo := rep.Results[0]
	if foo.Name != "BenchmarkFoo" || foo.Package != "repro" {
		t.Errorf("first result = %q pkg %q", foo.Name, foo.Package)
	}
	if got := foo.Sample("ns/op"); len(got) != 3 || got[0] != 1100 || got[2] != 1150 {
		t.Errorf("foo ns/op = %v", got)
	}
	if got := foo.Sample("B/op"); len(got) != 3 {
		t.Errorf("foo B/op = %v", got)
	}
	bar := rep.Results[1]
	if bar.Name != "BenchmarkBar/j=1" {
		t.Errorf("second result = %q", bar.Name)
	}
	if got := bar.Sample("ns/op"); len(got) != 3 || got[1] != 2020 {
		t.Errorf("bar ns/op = %v", got)
	}
	if rep.Env["cpu"] != "Test CPU @ 2.10GHz" || rep.Env["goos"] != "linux" {
		t.Errorf("env = %v", rep.Env)
	}
	// The grouped text must round-trip through the v2 schema.
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ParseReport(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Results) != 2 || back.Results[0].Runs() != 3 {
		t.Errorf("round-trip lost structure: %+v", back.Results)
	}
}

func TestParseBenchNoBenchmarks(t *testing.T) {
	_, err := ParseBench(strings.NewReader("PASS\nok  \trepro\t0.1s\n"))
	if !errors.Is(err, ErrNoResults) {
		t.Errorf("err = %v, want ErrNoResults", err)
	}
}

func TestEnvFingerprint(t *testing.T) {
	a := map[string]string{"goos": "linux", "cpu": "X"}
	b := map[string]string{"cpu": "X", "goos": "linux"}
	if EnvFingerprint(a) != EnvFingerprint(b) {
		t.Error("fingerprint depends on map order")
	}
	c := map[string]string{"cpu": "Y", "goos": "linux"}
	if EnvFingerprint(a) == EnvFingerprint(c) {
		t.Error("fingerprint ignores values")
	}
	if n := len(EnvFingerprint(a)); n != 12 {
		t.Errorf("fingerprint length = %d, want 12", n)
	}
}

func TestCaptureEnv(t *testing.T) {
	env := CaptureEnv()
	for _, k := range []string{"go", "goos", "goarch", "gomaxprocs", "numcpu"} {
		if env[k] == "" {
			t.Errorf("CaptureEnv missing %q", k)
		}
	}
}
