package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 {
		t.Errorf("summary = %+v", s)
	}
	if math.Abs(s.Std-2.138) > 0.01 {
		t.Errorf("std = %v", s.Std)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Error("min/max")
	}
	if s.Median != 4.5 {
		t.Errorf("median = %v", s.Median)
	}
	if z := Summarize(nil); z.N != 0 || z.Mean != 0 {
		t.Error("empty summary")
	}
}

func TestCI95(t *testing.T) {
	s := Summarize([]float64{1, 1, 1, 1})
	if s.CI95() != 0 {
		t.Error("constant sample CI should be 0")
	}
	if Summarize([]float64{5}).CI95() != 0 {
		t.Error("single sample CI should be 0")
	}
	wide := Summarize([]float64{0, 10})
	if wide.CI95() <= 0 {
		t.Error("CI must be positive for spread data")
	}
}

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

func TestGrowthExponentExactPowerLaw(t *testing.T) {
	for _, k := range []float64{0.5, 1, 2, 3} {
		var xs, ys []float64
		for x := 1.0; x <= 32; x *= 2 {
			xs = append(xs, x)
			ys = append(ys, 7*math.Pow(x, k))
		}
		got, r2 := GrowthExponent(xs, ys)
		if math.Abs(got-k) > 1e-9 {
			t.Errorf("exponent = %v, want %v", got, k)
		}
		if math.Abs(r2-1) > 1e-9 {
			t.Errorf("R² = %v, want 1", r2)
		}
	}
}

func TestGrowthExponentRejectsBadInput(t *testing.T) {
	if k, _ := GrowthExponent([]float64{1, 2}, []float64{1}); !math.IsNaN(k) {
		t.Error("length mismatch")
	}
	if k, _ := GrowthExponent([]float64{1, -2}, []float64{1, 2}); !math.IsNaN(k) {
		t.Error("negative input")
	}
	if k, _ := GrowthExponent([]float64{3, 3}, []float64{1, 2}); !math.IsNaN(k) {
		t.Error("zero-variance x")
	}
}

func TestHistogram(t *testing.T) {
	counts, bounds := Histogram([]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 5)
	if len(counts) != 5 || len(bounds) != 6 {
		t.Fatal("shapes")
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 10 {
		t.Errorf("histogram lost values: %v", counts)
	}
	if c, _ := Histogram(nil, 3); c != nil {
		t.Error("empty histogram")
	}
	// Constant data must not divide by zero.
	c, _ := Histogram([]float64{5, 5, 5}, 2)
	if c[0]+c[1] != 3 {
		t.Error("constant data histogram")
	}
}

func TestGeometricMean(t *testing.T) {
	if g := GeometricMean([]float64{1, 4, 16}); math.Abs(g-4) > 1e-12 {
		t.Errorf("geomean = %v", g)
	}
	if !math.IsNaN(GeometricMean([]float64{1, -1})) {
		t.Error("negative input")
	}
	if !math.IsNaN(GeometricMean(nil)) {
		t.Error("empty input")
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

func TestSummarizeProperties(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e9 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		if s.Min > s.Median || s.Median > s.Max {
			return false
		}
		if s.Mean < s.Min-1e-9 || s.Mean > s.Max+1e-9 {
			return false
		}
		return s.Std >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
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
