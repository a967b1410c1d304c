package stats

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Table accumulates rows and renders an aligned, paper-style text table.
// The zero value is unusable; construct with NewTable.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row. Cells beyond the header count are dropped; missing
// cells render empty. Values are stringified with FormatFloat for floats
// and fmt.Sprint otherwise.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(t.headers))
	for i := range row {
		if i >= len(cells) {
			continue
		}
		switch v := cells[i].(type) {
		case float64:
			row[i] = FormatFloat(v)
		case float32:
			row[i] = FormatFloat(float64(v))
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

// NumRows returns the number of data rows added so far.
func (t *Table) NumRows() int { return len(t.rows) }

// Title returns the table's title line.
func (t *Table) Title() string { return t.title }

// WriteCSV emits the table as RFC-4180 CSV (headers first, no title
// line) for downstream plotting tools.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.headers); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteTablesCSV emits tables in the `wormbench -csv` stream format:
// per table a "# title" line, the CSV, and a blank line. Every producer
// of that stream (the CLI, the daemon's result.csv) calls this, so they
// cannot drift apart.
func WriteTablesCSV(w io.Writer, tables []*Table) error {
	for _, t := range tables {
		if _, err := fmt.Fprintf(w, "# %s\n", t.title); err != nil {
			return err
		}
		if err := t.WriteCSV(w); err != nil {
			return err
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		b.WriteString(t.title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	total := len(widths) - 1
	for _, w := range widths {
		total += w + 1
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
