package main

// Crash consistency by enumeration. Two jobs — a two-point sweep that
// checkpoints and a quick experiment that memoizes its rows — run once
// over an in-memory filesystem that logs every mutating operation. Then,
// for every k up to the log's length N and under both crash models of
// snaptest (a process death keeps everything written; a machine death
// keeps only what was synced, and tears the last unsynced write), a fresh
// manager starts on the state the crash after operation k left, and
// every job that had its 202 by then must finish with a CSV
// byte-identical to the oracle. The faults a bad disk adds become
// mutations in the same loop: ENOSPC at each write of a live run, and a
// write of a checkpoint — its payload's or its header's — that reaches
// the disk torn, flipped, or not at all.

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"path"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"wormhole/internal/core"
	"wormhole/internal/snap"
	"wormhole/internal/snap/snaptest"
	"wormhole/internal/stats"
)

const (
	crashState = "state" // the state directory inside the in-memory FS
	crashCkpt  = 100     // checkpoint interval, in flit steps: several per sweep point
)

// crashJob is one job of the enumeration and the CSV it must serve.
type crashJob struct {
	spec JobSpec
	want string
}

func crashJobs(t *testing.T) []crashJob {
	t.Helper()
	sweep := testSweepSpec() // two points
	exp := &ExperimentSpec{ID: "T16", Seed: 42, Quick: true}
	tables, err := core.Run(context.Background(), exp.ID, exp.config())
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := stats.WriteTablesCSV(&b, tables); err != nil {
		t.Fatal(err)
	}
	return []crashJob{
		{JobSpec{Type: "sweep", Sweep: sweep}, directRunCSV(t, sweep)},
		{JobSpec{Type: "experiment", Experiment: exp}, b.String()},
	}
}

// crashRun is one live run of the jobs, one after the other, over fsys.
type crashRun struct {
	ids    []string      // job ID per crashJob, "" if its Submit failed
	acked  []int         // per job: operations logged when Submit returned
	final  []JobStatus   // per job: where it ended
	log    []snaptest.Op // every mutating operation applied, in order
	failed string        // the file whose write was failed
	mu     sync.Mutex    // guards log and failed against the workers
	fsys   *snaptest.FS  // the live filesystem
}

// runCrashJobs runs jobs over a fresh logging FS; with enospc > 0, the
// enospc-th write fails as on a full disk.
func runCrashJobs(t *testing.T, jobs []crashJob, enospc int) *crashRun {
	t.Helper()
	run := &crashRun{}
	writes := 0
	run.fsys = &snaptest.FS{Hook: func(op snaptest.Op) error {
		run.mu.Lock()
		defer run.mu.Unlock()
		if isWrite(op) {
			if writes++; writes == enospc {
				run.failed = op.Path
				return &fs.PathError{Op: "write", Path: op.Path, Err: syscall.ENOSPC}
			}
		}
		run.log = append(run.log, op)
		return nil
	}}
	m, err := newManager(crashState, 2, crashCkpt, 0, run.fsys)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	for _, job := range jobs {
		st, err := m.Submit(job.spec)
		run.mu.Lock()
		run.acked = append(run.acked, len(run.log))
		run.mu.Unlock()
		if err != nil {
			run.ids = append(run.ids, "")
			run.final = append(run.final, JobStatus{})
			continue
		}
		run.ids = append(run.ids, st.ID)
		settle(t, m)
		j, _ := m.Get(st.ID)
		run.final = append(run.final, j.snapshotStatus())
	}
	return run
}

// settle waits until no job m holds is queued or running.
func settle(t *testing.T, m *manager) {
	t.Helper()
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(200 * time.Microsecond) {
		busy := false
		for _, st := range m.List() {
			busy = busy || st.State == stateQueued || st.State == stateRunning
		}
		if !busy {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("jobs never settled")
		}
	}
}

// walk calls fn on every file under dir, in name order.
func walk(fsys snap.FS, dir string, fn func(name string, data []byte)) {
	entries, _ := fsys.ReadDir(dir)
	for _, e := range entries {
		name := path.Join(dir, e.Name())
		if e.IsDir() {
			walk(fsys, name, fn)
			continue
		}
		data, _ := fsys.ReadFile(name)
		fn(name, data)
	}
}

// restartOn starts a manager on img, lets every job it finds run to its
// end, and returns what is wrong: a job that had its 202 (required) and
// is gone, a job that did not end done with its oracle's CSV, or a
// checkpoint or temp file left behind once all are done.
func restartOn(t *testing.T, img snap.FS, jobs []crashJob, ids []string, required map[string]bool) (problems []string, statuses map[string]JobStatus) {
	t.Helper()
	m, err := newManager(crashState, 2, crashCkpt, 0, img)
	if err != nil {
		return []string{"restart: " + err.Error()}, nil
	}
	settle(t, m)
	m.Shutdown()
	statuses = map[string]JobStatus{}
	for i, id := range ids {
		j, ok := m.Get(id)
		if !ok {
			if required[id] {
				problems = append(problems, fmt.Sprintf("job %s got its 202 but is gone", id))
			}
			continue
		}
		st := j.snapshotStatus()
		statuses[id] = st
		if st.State != stateDone {
			problems = append(problems, fmt.Sprintf("job %s ended %s: %s", id, st.State, st.Error))
			continue
		}
		if got, err := img.ReadFile(m.ResultPath(id)); err != nil || string(got) != jobs[i].want {
			problems = append(problems, fmt.Sprintf("job %s serves a CSV unlike its oracle (%v):\n%s", id, err, got))
		}
	}
	walk(img, path.Join(crashState, "jobs"), func(name string, _ []byte) {
		if strings.HasSuffix(name, ".snap") || leftoverTemp.MatchString(name) {
			problems = append(problems, "left behind after every job finished: "+name)
		}
	})
	return problems, statuses
}

// isWrite reports whether op writes data: appended, or a frame's header
// filled in at its offset.
func isWrite(op snaptest.Op) bool {
	return op.Kind == snaptest.OpWrite || op.Kind == snaptest.OpWriteAt
}

// leftoverTemp matches what an interrupted snap.WriteFile leaves.
var leftoverTemp = regexp.MustCompile(`\.tmp[0-9]+$`)

// TestCrashPoints enumerates every crash point of the two jobs under both
// crash models, then every ENOSPC, torn, flipped and dropped mutation.
func TestCrashPoints(t *testing.T) {
	jobs := crashJobs(t)
	rec := runCrashJobs(t, jobs, 0)
	for i, st := range rec.final {
		if st.State != stateDone {
			t.Fatalf("recording run: job %d ended %s: %s", i, st.State, st.Error)
		}
	}
	log := rec.log
	n := len(log)

	for _, death := range []struct {
		name string
		snaptest.Death
	}{{"process death", snaptest.ProcessDeath}, {"machine death", snaptest.MachineDeath}} {
		t.Run(strings.ReplaceAll(death.name, " ", "-"), func(t *testing.T) {
			for k := 0; k <= n; k++ {
				required := map[string]bool{}
				for i, id := range rec.ids {
					required[id] = k >= rec.acked[i]
				}
				img := &snaptest.FS{Past: log[:k], Death: death.Death}
				if problems, _ := restartOn(t, img, jobs, rec.ids, required); len(problems) > 0 {
					after := "before the first operation"
					if k > 0 {
						after = fmt.Sprintf("after operation %d (%v)", k, log[k-1])
					}
					t.Fatalf("%s %s:\n%s", death.name, after, strings.Join(problems, "\n"))
				}
			}
			t.Logf("%s: N = %d operations, a restart after each and before the first", death.name, n)
		})
	}

	t.Run("ENOSPC", func(t *testing.T) {
		writes := 0
		for _, op := range log {
			if isWrite(op) {
				writes++
			}
		}
		sawCkpt := false
		for w := 1; w <= writes; w++ {
			run := runCrashJobs(t, jobs, w)
			failed := run.failed
			for i, id := range run.ids {
				st := run.final[i]
				isResult := id != "" && strings.HasPrefix(failed, path.Join(crashState, "jobs", id, "result.csv.tmp"))
				switch {
				case id == "":
					// Submit's own job.json failed: no 202, nothing owed.
				case isResult:
					// A result that cannot be written fails its job, visibly.
					if st.State != stateFailed || !strings.Contains(st.Error, syscall.ENOSPC.Error()) {
						t.Errorf("ENOSPC at write %d (%s): job %s ended %s %q, want failed with the ENOSPC", w, failed, id, st.State, st.Error)
					}
				case st.State != stateDone:
					t.Errorf("ENOSPC at write %d (%s): job %s ended %s: %s", w, failed, id, st.State, st.Error)
				default:
					if got, err := run.fsys.ReadFile(path.Join(crashState, "jobs", id, "result.csv")); err != nil || string(got) != jobs[i].want {
						t.Errorf("ENOSPC at write %d (%s): job %s serves a CSV unlike its oracle (%v):\n%s", w, failed, id, err, got)
					}
				}
				if strings.HasPrefix(failed, path.Join(crashState, "jobs", id, "point-")) && strings.Contains(failed, ".snap.tmp") {
					sawCkpt = true
					// A failed checkpoint costs resume granularity, and says so.
					if ck := st.Checkpoints; ck == nil || ck.Failed != 1 || !strings.Contains(ck.LastError, "no space left on device") {
						t.Errorf("ENOSPC at write %d (%s): job %s reports checkpoints %+v, want the failure counted with its error", w, failed, id, ck)
					}
				}
			}
		}
		if !sawCkpt {
			t.Fatal("no write was a checkpoint's")
		}
		t.Logf("ENOSPC: %d writes failed, one run each", writes)
	})

	// Each write of each checkpoint, the header's included, as it reaches
	// the disk: torn, flipped, or dropped (lost while the rename that
	// publishes the file is not), then a process death right after that
	// rename. One subtest per mutation, each over every such write.
	t.Run("checkpoint-mutations", func(t *testing.T) {
		for _, mut := range []string{"torn", "flipped", "dropped"} {
			t.Run(mut, func(t *testing.T) {
				restarts, headers := 0, 0
				for w, op := range log {
					if !isWrite(op) || !strings.Contains(op.Path, ".snap.tmp") {
						continue
					}
					if op.Kind == snaptest.OpWriteAt {
						headers++
					}
					r := w + 1
					for log[r].Kind != snaptest.OpRename || log[r].Path != op.Path {
						r++
					}
					end := r + 1 // through the rename
					past := append([]snaptest.Op(nil), log[:end]...)
					switch mut {
					case "torn":
						past[w].Data = op.Data[:len(op.Data)/2]
					case "flipped":
						past[w].Data = append([]byte(nil), op.Data...)
						past[w].Data[len(op.Data)/2] ^= 0x10
					case "dropped":
						past = append(past[:w], past[w+1:]...)
					}
					required := map[string]bool{}
					for i, id := range rec.ids {
						required[id] = end >= rec.acked[i]
					}
					problems, statuses := restartOn(t, &snaptest.FS{Past: past}, jobs, rec.ids, required)
					sweep := statuses[rec.ids[0]]
					if ck := sweep.Checkpoints; ck == nil || ck.RestoreRejected < 1 || !strings.Contains(ck.LastRestoreError, errCorruptCheckpoint.Error()) {
						problems = append(problems, fmt.Sprintf("the sweep reports checkpoints %+v, want the rejected restore counted with its reason", ck))
					}
					if len(problems) > 0 {
						t.Fatalf("%s %s:\n%s", mut, op, strings.Join(problems, "\n"))
					}
					restarts++
				}
				if headers == 0 {
					t.Fatal("the sweep wrote no checkpoint header")
				}
				t.Logf("%s checkpoint writes: %d restarts, %d of them headers", mut, restarts, headers)
			})
		}
	})
}
