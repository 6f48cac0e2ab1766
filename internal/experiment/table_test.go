package experiment

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// typedTable builds a table exercising every cell constructor, including
// the non-finite values dead baselines produce.
func typedTable() *Table {
	t := &Table{
		ID:      "T",
		Title:   "typed cells",
		Columns: []string{"name", "count", "gap(days)", "afp", "ratio", "on"},
		Notes:   []string{"a note"},
	}
	t.AddCells(Str("alive"), Int(42), Num("%.1f", 229.6), Prob(4.8e-4), Ratio(1.5), Bool(true))
	t.AddCells(Str("dead"), Int(0), Num("%.1f", math.Inf(1)), Prob(0), Ratio(math.Inf(1)), Bool(false))
	return t
}

// TestFprintInfAlignment asserts non-finite means render as "inf" (not
// fmt's "+Inf") and stay column-aligned.
func TestFprintInfAlignment(t *testing.T) {
	var buf bytes.Buffer
	typedTable().Fprint(&buf)
	out := buf.String()
	if strings.Contains(out, "+Inf") {
		t.Errorf("Fprint leaked fmt's +Inf spelling:\n%s", out)
	}
	if !strings.Contains(out, "inf") {
		t.Errorf("Inf cell not rendered:\n%s", out)
	}
	// Every data column starts at the same offset on both rows.
	lines := strings.Split(out, "\n")
	var rows []string
	for _, l := range lines {
		if strings.Contains(l, "alive") || strings.Contains(l, "dead") {
			rows = append(rows, l)
		}
	}
	if len(rows) != 2 {
		t.Fatalf("expected 2 data rows, got %d:\n%s", len(rows), out)
	}
	if strings.Index(rows[0], "229.6") != strings.Index(rows[1], "inf") {
		t.Errorf("gap column misaligned:\n%s", out)
	}
}

// TestFprintOverlongRow asserts rows with more cells than declared columns
// still align instead of jamming the extra cells together.
func TestFprintOverlongRow(t *testing.T) {
	tab := &Table{ID: "X", Title: "overlong", Columns: []string{"a"}}
	tab.AddCells(Str("1"), Str("extra"), Str("more"))
	tab.AddCells(Str("22"), Str("x"), Str("y"))
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	if !strings.Contains(out, "1   extra  more") {
		t.Errorf("overlong row not padded:\n%s", out)
	}
}

// TestWriteJSON asserts typed cells marshal as values and non-finite
// floats degrade to their rendered text.
func TestWriteJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := typedTable().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`"id":"T"`,
		`"columns":["name","count","gap(days)","afp","ratio","on"]`,
		`["alive",42,229.6,0.00048,1.5,true]`,
		`["dead",0,"inf",0,"inf",false]`,
		`"notes":["a note"]`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON missing %s:\n%s", want, out)
		}
	}
	// Tables of plain string cells must marshal too.
	plain := &Table{ID: "P", Title: "plain", Columns: []string{"c"}}
	plain.AddCells(Str("v"))
	buf.Reset()
	if err := plain.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `[["v"]]`) {
		t.Errorf("plain rows mangled: %s", buf.String())
	}
}

// TestWriteCSV asserts the CSV emitter writes a header and full-precision
// typed values.
func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := typedTable().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines, want 3:\n%s", len(lines), buf.String())
	}
	if lines[0] != "name,count,gap(days),afp,ratio,on" {
		t.Errorf("CSV header = %q", lines[0])
	}
	if lines[1] != "alive,42,229.6,0.00048,1.5,true" {
		t.Errorf("CSV row 1 = %q", lines[1])
	}
	if lines[2] != "dead,0,inf,0,inf,false" {
		t.Errorf("CSV row 2 = %q", lines[2])
	}
}
