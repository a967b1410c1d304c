package stats

import (
	"math"
	"strings"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	if Percentile(xs, 0) != 10 || Percentile(xs, 1) != 40 {
		t.Error("extremes")
	}
	if got := Percentile(xs, 0.5); got != 25 {
		t.Errorf("median = %v", got)
	}
	if Percentile(nil, 0.5) != 0 {
		t.Error("empty percentile")
	}
}

func TestRatio(t *testing.T) {
	if Ratio(6, 3) != 2 {
		t.Error("ratio")
	}
	if !math.IsNaN(Ratio(1, 0)) {
		t.Error("zero denominator")
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		3:      "3",
		3.5:    "3.5",
		123.45: "123.5",
		0.125:  "0.125",
	}
	for in, want := range cases {
		if got := FormatFloat(in); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", in, got, want)
		}
	}
	if FormatFloat(math.NaN()) != "-" {
		t.Error("NaN formatting")
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("My Title", "a", "bb", "ccc")
	tab.AddRow(1, 2.5, "x")
	tab.AddRow("long-cell", 0.333333, true)
	out := tab.String()
	if !strings.Contains(out, "My Title") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "long-cell") || !strings.Contains(out, "0.333") {
		t.Errorf("cells missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Errorf("line count %d:\n%s", len(lines), out)
	}
	if tab.NumRows() != 2 {
		t.Error("NumRows")
	}
}

func TestTableCSV(t *testing.T) {
	tab := NewTable("Title Is Not Emitted", "x", "y")
	tab.AddRow(1, "a,b") // comma must be quoted
	var b strings.Builder
	if err := tab.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if strings.Contains(out, "Title") {
		t.Error("CSV must not contain the title")
	}
	if !strings.HasPrefix(out, "x,y\n") {
		t.Errorf("CSV header wrong:\n%s", out)
	}
	if !strings.Contains(out, `"a,b"`) {
		t.Errorf("comma cell not quoted:\n%s", out)
	}
	if tab.Title() != "Title Is Not Emitted" {
		t.Error("Title accessor")
	}
}

// TestWriteTablesCSV pins the `wormbench -csv` stream format: per table
// a "# title" line, the CSV, and a blank line.
func TestWriteTablesCSV(t *testing.T) {
	a := NewTable("first", "x")
	a.AddRow(1)
	b := NewTable("second", "y", "z")
	b.AddRow(2.5, "q")
	var out strings.Builder
	if err := WriteTablesCSV(&out, []*Table{a, b}); err != nil {
		t.Fatal(err)
	}
	if want := "# first\nx\n1\n\n# second\ny,z\n2.5,q\n\n"; out.String() != want {
		t.Errorf("stream = %q, want %q", out.String(), want)
	}
}

func TestTableHandlesShortRows(t *testing.T) {
	tab := NewTable("", "a", "b")
	tab.AddRow(1)       // missing cell
	tab.AddRow(1, 2, 3) // extra cell dropped
	out := tab.String()
	if strings.Contains(out, "3") {
		t.Errorf("extra cell leaked:\n%s", out)
	}
}
