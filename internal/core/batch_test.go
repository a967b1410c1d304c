package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"testing"

	"wormhole/internal/stats"
)

// batchIDs is every experiment outside the open-loop studies, in
// registry order.
var batchIDs = []string{"A1", "A2", "A3", "A4", "A5", "F1", "F2", "T1", "T10", "T11", "T2", "T3", "T4", "T5", "T6", "T7", "T8", "T9"}

// batchQuickSHA256 is the SHA-256 of `wormbench -run ID -quick -csv
// -seed 42` stdout for every ID in batchIDs, concatenated, recorded
// from a build of the commit before T1–T8 and A1–A5 became
// declarations over one engine. It is the batch counterpart of
// openLoopQuickSHA256; testdata/batch_full.sha256 is the same list at
// full scale, checked in CI.
const batchQuickSHA256 = "3d2e47771253563f157741ac10e156dbc90153aa88b2b3acfd239ae54e070334"

func TestBatchQuickGolden(t *testing.T) {
	var out bytes.Buffer
	for _, id := range batchIDs {
		tables, err := Run(context.Background(), id, Config{Seed: 42, Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := stats.WriteTablesCSV(&out, tables); err != nil {
			t.Fatal(err)
		}
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(out.Bytes())); got != batchQuickSHA256 {
		t.Errorf("batch quick CSV digest %s, want %s; output:\n%s", got, batchQuickSHA256, out.String())
	}
}

// tableRow is one row of a batch table: each column's value, by header.
type tableRow map[string]any

// tableRows measures b at quick scale, as core's shape tests read it.
func tableRows(t *testing.T, b *batch) []tableRow {
	t.Helper()
	var out []tableRow
	for _, r := range b.rows(quickCfg) {
		row := tableRow{}
		for _, c := range b.cols {
			row[c.header] = c.cell(r)
		}
		out = append(out, row)
	}
	return out
}

// f is the numeric column header; a header the table lacks panics.
func (r tableRow) f(header string) float64 {
	switch v := r[header].(type) {
	case int:
		return float64(v)
	case float64:
		return v
	case bool:
		if v {
			return 1
		}
		return 0
	}
	panic(fmt.Sprintf("no numeric column %q in %v", header, r))
}

// is is the boolean column header.
func (r tableRow) is(header string) bool {
	v, ok := r[header].(bool)
	if !ok {
		panic(fmt.Sprintf("no boolean column %q in %v", header, r))
	}
	return v
}
