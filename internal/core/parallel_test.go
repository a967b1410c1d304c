package core

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
)

// TestParallelDeterminism is the harness's central contract: for every
// registered experiment, the rendered tables are byte-identical whether
// the job-runner uses one worker, four or eight. Run with -race this
// also exercises the fan-out for data races.
func TestParallelDeterminism(t *testing.T) {
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			render := func(workers int) string {
				tables, err := Run(context.Background(), e.ID, Config{Seed: 11, Quick: true, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				out := ""
				for _, tab := range tables {
					out += tab.String() + "\n"
				}
				return out
			}
			seq := render(1)
			for _, w := range []int{4, 8} {
				if par := render(w); par != seq {
					t.Errorf("tables differ between Workers=1 and Workers=%d:\n--- sequential ---\n%s\n--- parallel ---\n%s", w, seq, par)
				}
			}
		})
	}
}

func TestForEachJobRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		for _, n := range []int{0, 1, 5, 100} {
			counts := make([]int32, n)
			forEachJob(workers, n, func(i int) { atomic.AddInt32(&counts[i], 1) })
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: job %d ran %d times", workers, n, i, c)
				}
			}
		}
	}
}

func TestForEachJobIsConcurrent(t *testing.T) {
	// With 4 workers and 4 jobs that all wait on each other, the jobs can
	// only finish if they truly run concurrently.
	const n = 4
	var wg sync.WaitGroup
	wg.Add(n)
	forEachJob(n, n, func(i int) {
		wg.Done()
		wg.Wait()
	})
}

// TestForEachJobPropagatesPanic: the experiments fail by panicking, so a
// job panic must surface on the calling goroutine (recoverable) instead
// of aborting the process from a worker.
func TestForEachJobPropagatesPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				if r := recover(); r != "job 3 failed" {
					t.Errorf("workers=%d: recovered %v, want the job's panic value", workers, r)
				}
			}()
			forEachJob(workers, 8, func(i int) {
				if i == 3 {
					panic("job 3 failed")
				}
			})
			t.Errorf("workers=%d: no panic reached the caller", workers)
		}()
	}
}

func TestMapJobsOrdersResultsByIndex(t *testing.T) {
	out := mapJobs(Config{Workers: 8}, 100, func(i int) int { return i * i })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("slot %d = %d, want %d", i, v, i*i)
		}
	}
}

func TestJobSourcesAreIndexDeterministic(t *testing.T) {
	a := jobSources(42, 8)
	b := jobSources(42, 8)
	for i := range a {
		if a[i].Uint64() != b[i].Uint64() {
			t.Fatalf("source %d differs across identical derivations", i)
		}
	}
	// Distinct indices get distinct streams.
	c := jobSources(42, 2)
	if c[0].Uint64() == c[1].Uint64() {
		t.Error("sibling sources produced the same first draw")
	}
}

func TestWorkersDefault(t *testing.T) {
	if w := (Config{}).workers(); w < 1 {
		t.Errorf("default workers = %d, want ≥ 1", w)
	}
	if w := (Config{Workers: 3}).workers(); w != 3 {
		t.Errorf("explicit workers = %d, want 3", w)
	}
}
