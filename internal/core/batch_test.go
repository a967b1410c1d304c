package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"wormhole/internal/stats"
)

// batchIDs is every experiment outside the open-loop studies T12–T16,
// in registry order.
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

// tableRows measures b under cfg, as core's shape tests read it.
func tableRows(t *testing.T, cfg Config, b *batch) []tableRow {
	t.Helper()
	var out []tableRow
	for _, r := range measure(cfg, []*batch{b})[0] {
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

// TestJobLayout pins the engine's schedule across the registry: every
// experiment but F2 issues exactly one fan-out and a blob is stored for
// every one of its jobs. One worker runs the jobs in the order they
// are handed out, so a checkpoint store is asked for them in that
// order; which job comes first is the engine's rule, pinned by
// TestJobsIssuedLastFirst.
func TestJobLayout(t *testing.T) {
	for _, e := range Experiments() {
		cfg := Config{Seed: 42, Quick: true, Workers: 1}
		store := newMemStore()
		cfg.Checkpoint = &Checkpoint{Store: store}
		if _, err := Run(context.Background(), e.ID, cfg); err != nil {
			t.Fatal(err)
		}
		n := len(store.loaded)
		if (n == 0) != (e.ID == "F2") {
			t.Errorf("%s: %d jobs", e.ID, n)
		}
		cp := (&Checkpoint{}).scoped(e.ID, cfg)
		for j, key := range store.loaded {
			if want := cp.key(0, n, j); key != want {
				t.Errorf("%s: job %d asked for as %s, want %s (one fan-out of %d, in order)", e.ID, j, key, want, n)
				break
			}
			if _, ok := store.blobs[key]; !ok {
				t.Errorf("%s job %d: result not stored", e.ID, j)
			}
		}
	}
}

// TestJobsIssuedLastFirst: the one fan-out of an experiment's tables
// hands out its (row, trial) jobs from the last back — the last table's
// last row first — and every trial lands in its own row's slot.
func TestJobsIssuedLastFirst(t *testing.T) {
	tab := func(bs []int, trials int) *batch {
		return &batch{
			cells:  func(Config) []cell { return []cell{{n: 1}, {n: 2}} },
			bs:     bs,
			trials: trials,
			measure: func(_ Config, c cell, trial int) vals {
				return vals{"n": float64(c.n), "B": float64(c.B), "trial": float64(trial)}
			},
		}
	}
	store := newMemStore()
	cfg := Config{Workers: 1, Trials: 2, Checkpoint: &Checkpoint{Store: store}}
	rows := measure(cfg, []*batch{tab(nil, 0), tab([]int{1, 4}, 1)})
	var want []vals // every job, in table order
	for _, table := range rows {
		for _, r := range table {
			for trial, v := range r.trials {
				if exp := (vals{"n": float64(r.n), "B": float64(r.B), "trial": float64(trial)}); !reflect.DeepEqual(v, exp) {
					t.Errorf("row n=%d B=%d trial %d holds %v", r.n, r.B, trial, v)
				}
				want = append(want, v)
			}
		}
	}
	if len(want) != 2+2*2*2 || len(store.loaded) != len(want) {
		t.Fatalf("%d jobs laid out, %d run; want 10", len(want), len(store.loaded))
	}
	for j, key := range store.loaded {
		var got vals
		if err := json.Unmarshal(store.blobs[key], &got); err != nil {
			t.Fatal(err)
		}
		if exp := want[len(want)-1-j]; !reflect.DeepEqual(got, exp) {
			t.Errorf("job %d ran %v, want %v", j, got, exp)
		}
	}
}
