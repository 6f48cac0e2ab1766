package experiment

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Cell is one typed table cell: the rendered text Fprint shows, plus the
// underlying value the JSON and CSV emitters preserve. A zero-value Cell is
// an empty string cell.
type Cell struct {
	// Text is the human-readable rendering (column-aligned by Fprint).
	Text string
	// Value is the typed payload: string, float64, int, or bool. When nil
	// the cell is treated as the string Text.
	Value any
}

// Str returns a string cell.
func Str(s string) Cell { return Cell{Text: s, Value: s} }

// Int returns an integer cell rendered as %d.
func Int(n int) Cell { return Cell{Text: strconv.Itoa(n), Value: n} }

// Num returns a float cell rendered with the given fmt verb (e.g. "%.2f").
// Non-finite values render as "inf", "-inf" or "nan" so columns containing
// them stay cleanly aligned (dead baselines yield +Inf mean success gaps).
func Num(format string, v float64) Cell {
	return Cell{Text: fmtFinite(format, v), Value: v}
}

// Bool returns a boolean cell rendered as true/false.
func Bool(b bool) Cell { return Cell{Text: strconv.FormatBool(b), Value: b} }

// Prob returns an access-failure-probability cell formatted like the
// paper's log axes.
func Prob(p float64) Cell { return Cell{Text: fmtProb(p), Value: p} }

// Ratio returns a ratio-metric cell ("inf" for +Inf, "-" for zero).
func Ratio(r float64) Cell { return Cell{Text: fmtRatio(r), Value: r} }

// MarshalJSON emits the typed value; non-finite floats fall back to the
// rendered text, which encoding/json cannot represent as numbers.
func (c Cell) MarshalJSON() ([]byte, error) {
	if c.Value == nil {
		return json.Marshal(c.Text)
	}
	if f, ok := c.Value.(float64); ok && (math.IsInf(f, 0) || math.IsNaN(f)) {
		return json.Marshal(c.Text)
	}
	return json.Marshal(c.Value)
}

// csvString renders the cell for CSV: typed values at full precision,
// falling back to the rendered text for strings and non-finite floats.
func (c Cell) csvString() string {
	switch v := c.Value.(type) {
	case float64:
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return c.Text
		}
		return strconv.FormatFloat(v, 'g', -1, 64)
	case int:
		return strconv.Itoa(v)
	case bool:
		return strconv.FormatBool(v)
	}
	return c.Text
}

// Table is a printable figure or table reproduction: one row per data point,
// in the same series the paper plots. Cells carry typed values, so a table
// renders as aligned text (Fprint), JSON (WriteJSON) or CSV (WriteCSV).
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]Cell
	Notes   []string
}

// AddCells appends a row of typed cells.
func (t *Table) AddCells(cells ...Cell) {
	t.Rows = append(t.Rows, cells)
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	// Size every column that appears in any row, including cells beyond the
	// declared Columns, so over-long rows still align.
	width := len(t.Columns)
	for _, row := range t.Rows {
		if len(row) > width {
			width = len(row)
		}
	}
	widths := make([]int, width)
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c.Text) > widths[i] {
				widths[i] = len(c.Text)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Columns)
	seps := make([]string, len(t.Columns))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, row := range t.Rows {
		texts := make([]string, len(row))
		for i, c := range row {
			texts[i] = c.Text
		}
		line(texts)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// tableJSON is the wire shape of a table.
type tableJSON struct {
	ID      string   `json:"id"`
	Title   string   `json:"title"`
	Columns []string `json:"columns"`
	Rows    [][]Cell `json:"rows"`
	Notes   []string `json:"notes,omitempty"`
}

// WriteJSON emits the table as one JSON object. Typed cells marshal as
// their values; non-finite floats marshal as their rendered text.
func (t *Table) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	rows := t.Rows
	if rows == nil {
		rows = [][]Cell{}
	}
	return enc.Encode(tableJSON{
		ID: t.ID, Title: t.Title, Columns: t.Columns, Rows: rows, Notes: t.Notes,
	})
}

// WriteCSV emits the table as CSV: a header row of column names, then one
// record per row with typed values at full precision.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		rec := make([]string, len(row))
		for i, c := range row {
			rec[i] = c.csvString()
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// fmtFinite formats v with the given verb, rendering non-finite values as
// "inf"/"-inf"/"nan" instead of fmt's "+Inf".
func fmtFinite(format string, v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "inf"
	case math.IsInf(v, -1):
		return "-inf"
	case math.IsNaN(v):
		return "nan"
	}
	return fmt.Sprintf(format, v)
}

// fmtProb formats an access failure probability like the paper's log axes.
func fmtProb(p float64) string {
	if p == 0 {
		return "0"
	}
	return fmtFinite("%.2e", p)
}

// fmtRatio formats a ratio metric.
func fmtRatio(r float64) string {
	if math.IsInf(r, 1) {
		return "inf"
	}
	if r == 0 {
		return "-"
	}
	return fmtFinite("%.2f", r)
}
