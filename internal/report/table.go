// Package report renders analysis results for humans and machines:
// aligned text tables, ASCII histograms, box plots, violin plots, and XY
// charts (the text equivalents of the paper's Figures 1–7), plus CSV and
// JSON exporters so datasets remain analyzable with external tools —
// LibSciBench's R integration translated to a self-contained Go library.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Table is a simple aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends one row, stringifying the cells with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = strconv.FormatFloat(v, 'g', 6, 64)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table to w with aligned columns.
func (t *Table) Render(w io.Writer) error {
	cols := len(t.Headers)
	for _, r := range t.Rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(r []string) {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.Headers)
	for _, r := range t.Rows {
		measure(r)
	}

	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", t.Title); err != nil {
			return err
		}
	}
	writeRow := func(r []string) error {
		var b strings.Builder
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(r) {
				cell = r[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
		return err
	}
	if len(t.Headers) > 0 {
		if err := writeRow(t.Headers); err != nil {
			return err
		}
		var b strings.Builder
		for i := 0; i < cols; i++ {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(strings.Repeat("-", widths[i]))
		}
		if _, err := fmt.Fprintln(w, b.String()); err != nil {
			return err
		}
	}
	for _, r := range t.Rows {
		if err := writeRow(r); err != nil {
			return err
		}
	}
	return nil
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	_ = t.Render(&b)
	return b.String()
}

// WriteCSV exports named columns of equal length as CSV (the raw-data
// release Rule 9 asks for).
func WriteCSV(w io.Writer, names []string, cols ...[]float64) error {
	if len(names) != len(cols) {
		return fmt.Errorf("report: %d names for %d columns", len(names), len(cols))
	}
	n := 0
	for i, c := range cols {
		if i == 0 {
			n = len(c)
		} else if len(c) != n {
			return fmt.Errorf("report: column %q has %d rows, want %d", names[i], len(c), n)
		}
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(names); err != nil {
		return err
	}
	row := make([]string, len(cols))
	for r := 0; r < n; r++ {
		for c := range cols {
			row[c] = strconv.FormatFloat(cols[c][r], 'g', 17, 64)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSVColumn parses one named column back from CSV produced by
// WriteCSV (or by any other tool).
func ReadCSVColumn(r io.Reader, name string) ([]float64, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, err
	}
	idx := -1
	for i, h := range header {
		if h == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("report: column %q not found in %v", name, header)
	}
	var out []float64
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		v, err := strconv.ParseFloat(rec[idx], 64)
		if err != nil {
			return nil, fmt.Errorf("report: bad value %q: %w", rec[idx], err)
		}
		out = append(out, v)
	}
	return out, nil
}
