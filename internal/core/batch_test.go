package core

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// quickSHA256 is the SHA-256 of `wormbench -all -quick -csv -seed 42`
// stdout — every registered experiment's tables, in registry order —
// recorded from the build before the checkpoint keys lost their stage.
// It is the bytes benchmark/golden.json pins for tables-quick;
// testdata/full.sha256 is the same at full scale, checked in CI.
const quickSHA256 = "fc42b782ca3536c7b0db74259597b40c411616a61dabe7d9f0f2f4aa73a0353f"

// TestBatchQuickGolden is the quick golden: every experiment but F2 is
// a batch declaration, so the batch engine's tables are the registry's,
// and the plain legs of the registry pass (quickPass), concatenated,
// must hash to quickSHA256.
func TestBatchQuickGolden(t *testing.T) {
	var all strings.Builder
	for _, e := range Experiments() {
		all.WriteString(quickPass(t, e.ID).plain)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(all.String()))); got != quickSHA256 {
		t.Errorf("quick CSV digest %s, want %s; output:\n%s", got, quickSHA256, all.String())
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

// TestJobLayout pins the engine's schedule across the registry: in the
// checkpointed leg of the registry pass (one worker, so the store is
// asked in the order jobs are handed out) every experiment but F2 issues
// exactly one fan-out, asks for its keys in order, and stores a blob
// for every job. Which job comes first is the engine's rule, pinned by
// TestJobsIssuedLastFirst.
func TestJobLayout(t *testing.T) {
	for _, e := range Experiments() {
		l := quickPass(t, e.ID)
		n := len(l.asked)
		if (n == 0) != (e.ID == "F2") {
			t.Errorf("%s: %d jobs", e.ID, n)
		}
		run := Config{prefix: runPrefix(e.ID, Config{Seed: 42, Quick: true})}
		for j, key := range l.asked {
			if want := run.key(n, j); key != want {
				t.Errorf("%s: job %d asked for as %s, want %s (one fan-out of %d, in order)", e.ID, j, key, want, n)
				break
			}
			if !l.stored[key] {
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
	cfg := Config{Workers: 1, Trials: 2, Checkpoint: store}
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
