package report

import (
	"math/rand/v2"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tbl := &Table{
		Title:   "demo",
		Headers: []string{"name", "value"},
	}
	tbl.AddRow("alpha", 1.5)
	tbl.AddRow("b", "x")
	tbl.AddRow("gamma", 42)
	out := tbl.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "alpha") {
		t.Errorf("table output missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + header + separator + 3 rows.
	if len(lines) != 6 {
		t.Errorf("lines = %d:\n%s", len(lines), out)
	}
	// Columns aligned: 'value' header starts at the same offset in each row.
	hdr := lines[1]
	col := strings.Index(hdr, "value")
	if col < 0 {
		t.Fatal("no value header")
	}
	if lines[3][col-1] != ' ' && lines[3][col] == ' ' {
		t.Errorf("misaligned rows:\n%s", out)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	var buf strings.Builder
	a := []float64{1.5, 2.25, -3.125}
	b := []float64{10, 20, 30}
	if err := WriteCSV(&buf, []string{"lat", "p"}, a, b); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSVColumn(strings.NewReader(buf.String()), "lat")
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 || back[0] != 1.5 || back[2] != -3.125 {
		t.Errorf("round trip = %v", back)
	}
	if _, err := ReadCSVColumn(strings.NewReader(buf.String()), "nope"); err == nil {
		t.Error("missing column should error")
	}
}

func TestCSVValidation(t *testing.T) {
	var buf strings.Builder
	if err := WriteCSV(&buf, []string{"a"}, []float64{1}, []float64{2}); err == nil {
		t.Error("name/column mismatch should error")
	}
	if err := WriteCSV(&buf, []string{"a", "b"}, []float64{1}, []float64{2, 3}); err == nil {
		t.Error("ragged columns should error")
	}
}

func sampleData(n int, seed uint64) []float64 {
	rng := rand.New(rand.NewPCG(seed, 1))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 5 + rng.NormFloat64()
	}
	return xs
}

func TestHistogramPlot(t *testing.T) {
	var buf strings.Builder
	if err := HistogramPlot(&buf, sampleData(500, 2), 8, 40); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 8 {
		t.Errorf("bins rendered = %d, want 8:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(buf.String(), "#") {
		t.Error("no bars rendered")
	}
	if err := HistogramPlot(&buf, nil, 4, 40); err == nil {
		t.Error("empty data should error")
	}
}

func TestDensityPlot(t *testing.T) {
	var buf strings.Builder
	if err := DensityPlot(&buf, sampleData(2000, 3), 60, 10); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "#") || !strings.Contains(out, "M") {
		t.Errorf("density plot lacks curve or markers:\n%s", out)
	}
	if err := DensityPlot(&buf, nil, 60, 10); err == nil {
		t.Error("empty data should error")
	}
}

func TestComputeBoxStats(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 100}
	b := ComputeBoxStats("g", xs)
	if b.Median != 5.5 {
		t.Errorf("median = %g", b.Median)
	}
	if b.NumOutside != 1 {
		t.Errorf("outside = %d, want 1 (the 100)", b.NumOutside)
	}
	if b.WhiskerHi == 100 {
		t.Error("whisker must not extend to the outlier")
	}
	if b.WhiskerLo != 1 {
		t.Errorf("whisker lo = %g", b.WhiskerLo)
	}
	if b.Q1 >= b.Q3 {
		t.Error("quartiles inverted")
	}
}

func TestBoxPlot(t *testing.T) {
	var buf strings.Builder
	groups := map[string][]float64{
		"dora":    sampleData(300, 4),
		"pilatus": sampleData(300, 5),
	}
	if err := BoxPlot(&buf, groups, 50); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "dora") || !strings.Contains(out, "pilatus") {
		t.Errorf("labels missing:\n%s", out)
	}
	if !strings.Contains(out, "M") || !strings.Contains(out, "=") {
		t.Errorf("box glyphs missing:\n%s", out)
	}
	if err := BoxPlot(&buf, nil, 50); err == nil {
		t.Error("no groups should error")
	}
}

func TestViolinPlot(t *testing.T) {
	var buf strings.Builder
	groups := map[string][]float64{"a": sampleData(1000, 6)}
	if err := ViolinPlot(&buf, groups, 50); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "med") {
		t.Errorf("violin output:\n%s", buf.String())
	}
	if err := ViolinPlot(&buf, map[string][]float64{}, 50); err == nil {
		t.Error("no groups should error")
	}
}

func TestXYPlot(t *testing.T) {
	var buf strings.Builder
	s := []Series{
		{Name: "measured", X: []float64{1, 2, 4, 8}, Y: []float64{8, 4, 2, 1}, Marker: 'o'},
		{Name: "ideal", X: []float64{1, 2, 4, 8}, Y: []float64{8, 4, 2, 1}},
	}
	if err := XYPlot(&buf, "scaling", s, 40, 10); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "scaling") || !strings.Contains(out, "measured") {
		t.Errorf("plot output:\n%s", out)
	}
	if !strings.Contains(out, "o") {
		t.Error("custom marker missing")
	}
	if err := XYPlot(&buf, "", nil, 40, 10); err == nil {
		t.Error("no series should error")
	}
	bad := []Series{{Name: "b", X: []float64{1}, Y: []float64{1, 2}}}
	if err := XYPlot(&buf, "", bad, 40, 10); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestPlotsHandleConstantData(t *testing.T) {
	var buf strings.Builder
	constData := []float64{3, 3, 3, 3, 3, 3}
	if err := BoxPlot(&buf, map[string][]float64{"c": constData}, 40); err != nil {
		t.Errorf("constant box plot: %v", err)
	}
	if err := ViolinPlot(&buf, map[string][]float64{"c": constData}, 40); err != nil {
		t.Errorf("constant violin: %v", err)
	}
	s := []Series{{Name: "flat", X: []float64{1, 2}, Y: []float64{5, 5}}}
	if err := XYPlot(&buf, "", s, 40, 8); err != nil {
		t.Errorf("flat series: %v", err)
	}
}
