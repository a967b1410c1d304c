package main

import (
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"wormhole/internal/stats"
	"wormhole/internal/traffic"
	"wormhole/internal/vcsim"
	"wormhole/internal/wormclient"
)

// daemonWorkload is daemon-sweep: a real wormholed on an ephemeral port
// and a temporary state directory, driven over HTTP in a closed loop by
// N clients that each submit a sweep job, poll its status every 5 ms
// and fetch its CSV — what a wormclient user does. The service layer
// (validation, queue, job.json and point persistence, CRC-framed
// checkpoint writes, CSV render, HTTP) does the work; the same sweep
// run in-process is its child layer.
type daemonWorkload struct {
	env  runEnv
	d    *daemon
	spec sweepSpec
	jobs atomic.Int64 // job index: job k runs at seed base+k
	// rssMB is wormholed's peak RSS once the warm-up jobs are done. They
	// run one at a time, so it repeats (ten-run spread 6%); the peak
	// under N concurrent jobs depends on how their garbage-collection
	// cycles happen to fall (ten-run spreads of 17% and 23%) and is the
	// per-layer wormholed.peak_rss_loaded_mb.
	rssMB float64

	requests, non2xx atomic.Int64
}

// sweepSpec mirrors the fields of wormholed's SweepSpec this workload
// sets; the JSON names are the API contract.
type sweepSpec struct {
	Topology        string    `json:"topology"`
	Size            int       `json:"size"`
	VirtualChannels int       `json:"virtual_channels"`
	MessageLength   int       `json:"message_length"`
	Arbitration     string    `json:"arbitration"`
	Process         string    `json:"process"`
	Rates           []float64 `json:"rates"`
	Warmup          int       `json:"warmup"`
	Measure         int       `json:"measure"`
	Drain           int       `json:"drain"`
	Window          int       `json:"window"`
	Seed            uint64    `json:"seed"`
}

const (
	pollEvery        = 5 * time.Millisecond
	checkpointEvery  = 2048
	daemonTimedJobs  = 40 // the floor on timed jobs, and what wall_s is normalised to
	daemonWarmupJobs = 2
	daemonCheckJobs  = 4 // jobs re-run in-process and compared field by field
)

func setupDaemon(env runEnv, tr *tracer, seg *segTimer) (instance, error) {
	w := &daemonWorkload{env: env, spec: sweepSpec{
		Topology: "butterfly", Size: 64, VirtualChannels: 2, MessageLength: 6,
		Arbitration: "age", Process: "poisson", Rates: []float64{0.1, 0.2, 0.3},
		Warmup: 512, Measure: 2048, Drain: 8192, Window: 512,
	}}
	if env.Smoke {
		w.spec.Warmup, w.spec.Measure, w.spec.Drain, w.spec.Window = 128, 512, 2048, 128
	}
	var err error
	if w.d, err = startDaemon(env, checkpointEvery); err != nil {
		return nil, err
	}
	seg.mark()
	warm := &ops{}
	for i := 0; i < daemonWarmupJobs; i++ {
		w.runJob(w.d, warm, nil, 0)
		seg.mark()
	}
	if warm.Failed > 0 {
		w.d.stop() //nolint:errcheck -- the warm-up failure is the error to report
		return nil, fmt.Errorf("warm-up: %s", strings.Join(warm.Errors, "; "))
	}
	if w.rssMB = w.d.peakRSSMB(); w.rssMB == 0 {
		w.d.stop() //nolint:errcheck -- the missing figure is the error to report
		return nil, errors.New("wormholed's peak RSS (VmHWM) is not in /proc")
	}
	return w, nil
}

// jobTimes are the four contiguous spans of one job; they sum to its
// latency by construction, the poll interval bounding each boundary.
type jobTimes struct {
	submit, queueWait, run, fetch time.Duration
	csv                           []byte
	seed                          uint64
}

func (t *jobTimes) latency() time.Duration { return t.submit + t.queueWait + t.run + t.fetch }

// request is one HTTP request: an operation, counted and checked.
func (w *daemonWorkload) request(o *ops, do func(ctx context.Context) error) error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := do(ctx)
	w.requests.Add(1)
	var se *wormclient.StatusError
	if errors.As(err, &se) {
		w.non2xx.Add(1)
	}
	o.done(err)
	return err
}

// runJob is one closed-loop client turn: submit → poll → fetch.
func (w *daemonWorkload) runJob(d *daemon, o *ops, tr *tracer, lane int) (jt jobTimes, ok bool) {
	k := w.jobs.Add(1) - 1
	spec := w.spec
	spec.Seed = w.env.Seed*1000 + uint64(k)
	jt.seed = spec.Seed
	iter := int(k)
	root := tr.beginLane("wormholed.job", 0, iter, lane)
	defer tr.end(root)
	fail := func(err error) (jobTimes, bool) {
		o.done(fmt.Errorf("job %d: %w", k, err))
		return jt, false
	}

	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Error string `json:"error"`
	}
	t0 := time.Now()
	id := tr.beginLane("wormholed.submit", root, iter, lane)
	err := w.request(o, func(ctx context.Context) error {
		return d.client.PostJSON(ctx, "/api/v1/jobs", map[string]any{"type": "sweep", "sweep": spec}, &st)
	})
	tr.end(id)
	t1 := time.Now()
	if err != nil {
		return fail(err)
	}
	jt.submit = t1.Sub(t0)

	path := "/api/v1/jobs/" + st.ID
	var running time.Time
	id = tr.beginLane("wormholed.queue_wait", root, iter, lane)
	for st.State != "done" {
		if err := w.request(o, func(ctx context.Context) error { return d.client.GetJSON(ctx, path, &st) }); err != nil {
			return fail(err)
		}
		switch st.State {
		case "queued", "done":
		case "running":
			if running.IsZero() {
				running = time.Now()
				tr.end(id)
				id = tr.beginLane("wormholed.run", root, iter, lane)
			}
		default:
			return fail(fmt.Errorf("state %q: %s", st.State, st.Error))
		}
		if st.State != "done" {
			time.Sleep(pollEvery)
		}
	}
	tr.end(id)
	t3 := time.Now()
	if running.IsZero() {
		running = t3 // never observed running: the whole wait counts as queueing
	}
	jt.queueWait, jt.run = running.Sub(t1), t3.Sub(running)

	id = tr.beginLane("wormholed.result_fetch", root, iter, lane)
	err = w.request(o, func(ctx context.Context) (e error) {
		jt.csv, e = d.client.Get(ctx, path+"/result")
		return e
	})
	tr.end(id)
	jt.fetch = time.Since(t3)
	if err != nil {
		return fail(err)
	}
	rows, err := csv.NewReader(strings.NewReader(string(jt.csv))).ReadAll()
	if err == nil && len(rows) != 1+len(spec.Rates) {
		err = fmt.Errorf("result has %d CSV rows, want a header and %d points", len(rows), len(spec.Rates))
	}
	if err != nil {
		return fail(err)
	}
	o.done(nil)
	return jt, true
}

// closedLoop runs N clients, each submitting its next job only when its
// previous one is in hand, until d has elapsed and floor jobs are done.
func (w *daemonWorkload) closedLoop(dm *daemon, d time.Duration, floor int, o *ops, tr *tracer) (jobs []jobTimes) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	var started atomic.Int64
	start := time.Now()
	for c := 0; c < parallelism(); c++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for {
				if n := started.Add(1); n > int64(floor) && time.Since(start) >= d {
					return
				}
				jt, ok := w.runJob(dm, o, tr, lane)
				if !ok {
					return // a failed job is counted; do not hammer a broken daemon
				}
				mu.Lock()
				jobs = append(jobs, jt)
				mu.Unlock()
			}
		}(c + 1)
	}
	wg.Wait()
	return jobs
}

// measure's jobs overlap and no two are the same, so there are no
// per-segment minima to take. wall_s is the makespan of 40 jobs shared
// by N closed-loop clients, 40/N job latencies, at the lower quartile
// of the timed jobs' latencies: other tenants only ever slow a job
// down, so the lower quartile follows the machine's mood less than the
// median does (ten-run spread 15% against 18% and, for the mean, 23%, on
// a series during which the machine slowed by a fifth), and unlike the
// minimum it does not hang on one job.
func (w *daemonWorkload) measure(d time.Duration, o *ops) timing {
	floor := daemonTimedJobs
	if w.env.Smoke {
		d, floor = 0, 2*parallelism()
	}
	jobs := w.closedLoop(w.d, d, floor, o, nil)
	if len(jobs) == 0 {
		return timing{}
	}
	// The digest covers the first `floor` jobs by seed, which every run
	// at this seed completes whatever its length.
	bySeed := map[uint64][]byte{}
	for _, jt := range jobs {
		bySeed[jt.seed] = jt.csv
	}
	var result []byte
	base := w.env.Seed*1000 + daemonWarmupJobs
	for k := uint64(0); k < uint64(floor); k++ {
		result = append(result, bySeed[base+k]...)
	}
	// Differential check: a sample of jobs re-run in-process, every CSV
	// field compared with what traffic.Run gives for the same point.
	for k := uint64(0); k < min(daemonCheckJobs, uint64(floor)); k++ {
		_, err := w.inProcess(base+k, bySeed[base+k], nil)
		o.done(err)
	}
	latency := make([]float64, len(jobs))
	for i := range jobs {
		latency[i] = jobs[i].latency().Seconds()
	}
	return timing{Quiet: stats.Percentile(latency, 0.25) * daemonTimedJobs / float64(parallelism()), Whole: latency, Result: result}
}

// inProcess runs one job's three points through traffic.Run, daemon
// idle, and (given the daemon's CSV) checks every field against it.
func (w *daemonWorkload) inProcess(seed uint64, got []byte, tr *tracer) (time.Duration, error) {
	net := traffic.NewButterflyNet(w.spec.Size)
	var rows [][]string
	if got != nil {
		var err error
		if rows, err = csv.NewReader(strings.NewReader(string(got))).ReadAll(); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	for i, rate := range w.spec.Rates {
		id := tr.begin("traffic.Run", 0, i)
		res, err := traffic.Run(traffic.Config{
			Net: net, VirtualChannels: w.spec.VirtualChannels, MessageLength: w.spec.MessageLength,
			Arbitration: vcsim.ArbAge, Process: traffic.Poisson, Rate: rate, Pattern: traffic.Uniform,
			Warmup: w.spec.Warmup, Measure: w.spec.Measure, Drain: w.spec.Drain, Window: w.spec.Window, Seed: seed,
		})
		tr.end(id)
		if err != nil {
			return 0, err
		}
		if rows == nil {
			continue
		}
		g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
		want := []string{g(rate), g(res.Offered), g(res.Accepted), g(res.MeanLatency), g(res.P50), g(res.P95), g(res.P99),
			strconv.Itoa(res.MaxLatency), strconv.Itoa(res.Steps), strconv.Itoa(res.Backlog), strconv.Itoa(res.Aborted),
			strconv.FormatBool(res.Saturated), strconv.FormatBool(res.EarlyStop), strconv.FormatBool(res.Truncated),
			strconv.FormatBool(res.Deadlocked), strconv.FormatBool(res.FaultDeadlocked)}
		if err := sameFields(rows[0], rows[i+1], want); err != nil {
			return 0, fmt.Errorf("job seed %d rate %g: %w", seed, rate, err)
		}
	}
	return time.Since(start), nil
}

// sameFields compares one CSV row with the in-process values by parsed
// value, not by text.
func sameFields(header, got, want []string) error {
	if len(got) != len(want) || len(header) != len(want) {
		return fmt.Errorf("CSV has %d columns, the in-process result %d", len(got), len(want))
	}
	for i := range want {
		if got[i] == want[i] {
			continue
		}
		a, errA := strconv.ParseFloat(got[i], 64)
		b, errB := strconv.ParseFloat(want[i], 64)
		if errA != nil || errB != nil || a != b {
			return fmt.Errorf("column %s: daemon %q, in-process %q", header[i], got[i], want[i])
		}
	}
	return nil
}

func (w *daemonWorkload) traced(d time.Duration, o *ops, tr *tracer) map[string]float64 {
	m := map[string]float64{}
	floor := 8
	if w.env.Smoke {
		d, floor = 0, 2*parallelism()
	}
	// Jobs are timed from the client side either way (the four spans
	// are the client's own clock reads), so the overhead is that of
	// recording them: an untraced and a traced batch of equal length,
	// compared at the lower quartile as wall_s is.
	col := func(jobs []jobTimes, f func(*jobTimes) time.Duration) []float64 {
		out := make([]float64, len(jobs))
		for i := range jobs {
			out[i] = f(&jobs[i]).Seconds()
		}
		return out
	}
	plain := w.closedLoop(w.d, d/2, floor, o, nil)
	jobs := w.closedLoop(w.d, d/2, floor, o, tr)
	if len(jobs) == 0 || len(plain) == 0 {
		return m
	}
	latency := col(jobs, (*jobTimes).latency)
	m["bench.trace_overhead_pct"] = overheadPct(stats.Percentile(latency, 0.25), stats.Percentile(col(plain, (*jobTimes).latency), 0.25))
	m["wormholed.job_latency_p50_s"] = median(latency)
	m["wormholed.job_latency_p75_s"] = stats.Percentile(latency, 0.75)
	m["wormholed.submit_ms_p50"] = 1e3 * median(col(jobs, func(j *jobTimes) time.Duration { return j.submit }))
	m["wormholed.queue_wait_ms_p50"] = 1e3 * median(col(jobs, func(j *jobTimes) time.Duration { return j.queueWait }))
	m["wormholed.run_s_p50"] = median(col(jobs, func(j *jobTimes) time.Duration { return j.run }))
	m["wormholed.result_fetch_ms_p50"] = 1e3 * median(col(jobs, func(j *jobTimes) time.Duration { return j.fetch }))
	m["wormholed.peak_rss_loaded_mb"] = w.d.peakRSSMB()
	m["wormholed.http_requests"] = float64(w.requests.Load())
	m["wormholed.http_non2xx"] = float64(w.non2xx.Load())

	// The child layer: the same three points in-process, daemon idle.
	var inproc []float64
	for i := 0; i < 3; i++ {
		dur, err := w.inProcess(jobs[0].seed, jobs[0].csv, tr)
		if o.done(err) {
			inproc = append(inproc, dur.Seconds())
		}
	}
	m["wormholed.inproc_run_s"] = median(inproc)
	m["wormholed.overhead_s"] = m["wormholed.job_latency_p50_s"] - m["wormholed.inproc_run_s"]

	// The same jobs against a second daemon that never checkpoints: the
	// difference is what periodic checkpointing costs a job.
	if err := w.d.stop(); err != nil {
		o.done(err)
	}
	var err error
	if w.d, err = startDaemon(w.env, 0); !o.done(err) {
		return m
	}
	w.runJob(w.d, o, nil, 0) // warm the fresh daemon
	bare := w.closedLoop(w.d, 0, floor, o, nil)
	if len(bare) > 0 {
		m["wormholed.overhead_nockpt_s"] = median(col(bare, (*jobTimes).latency)) - m["wormholed.inproc_run_s"]
		m["wormholed.ckpt_cost_s"] = m["wormholed.overhead_s"] - m["wormholed.overhead_nockpt_s"]
	}
	return m
}

func (w *daemonWorkload) peakRSSMB() float64 { return w.rssMB }

func (w *daemonWorkload) close() error { return w.d.stop() }

// daemon is one running wormholed and its temporary state.
type daemon struct {
	cmd    *exec.Cmd
	dir    string // temporary state directory, inside the build dir
	client *wormclient.Client
	stderr *os.File
}

// startDaemon starts wormholed on an ephemeral port and returns once
// /healthz answers.
func startDaemon(env runEnv, checkpointInterval int) (*daemon, error) {
	if _, err := os.Stat(env.bin("wormholed")); err != nil {
		return nil, fmt.Errorf("built binary missing (run through benchmark/run.sh): %w", err)
	}
	dir, err := os.MkdirTemp(env.buildDir(), "wormholed-")
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir}
	addrFile := filepath.Join(dir, "addr")
	if d.stderr, err = os.Create(filepath.Join(dir, "stderr.log")); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	d.cmd = exec.Command(env.bin("wormholed"), "-http", "127.0.0.1:0", "-addr-file", addrFile,
		"-state", filepath.Join(dir, "state"), "-workers", strconv.Itoa(parallelism()),
		"-checkpoint-interval", strconv.Itoa(checkpointInterval))
	d.cmd.Stderr = d.stderr
	if err := d.cmd.Start(); err != nil {
		d.stderr.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if addr, err := os.ReadFile(addrFile); err == nil && len(addr) > 0 {
			// One attempt per request: every retry would hide a non-2xx
			// the benchmark is there to count.
			d.client = wormclient.New("http://"+string(addr), wormclient.WithRetry(1, time.Millisecond, time.Millisecond),
				wormclient.WithHTTPClient(&http.Client{Timeout: 60 * time.Second}))
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			_, err := d.client.Get(ctx, "/healthz")
			cancel()
			if err == nil {
				return d, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.stop() //nolint:errcheck -- the start-up failure is the error to report
	return nil, errors.New("wormholed did not answer /healthz within 15 s")
}

// peakRSSMB is the running daemon's peak resident set so far (VmHWM:
// what ru_maxrss will report when it ends), 0 if /proc does not say.
func (d *daemon) peakRSSMB() float64 {
	blob, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	_, rest, _ := strings.Cut(string(blob), "VmHWM:")
	var kb float64
	fmt.Sscan(rest, &kb) //nolint:errcheck -- 0 on a parse miss, which set-up reports
	return kb / 1024
}

// stop terminates the daemon, waits until it has ended and removes its
// temporary state.
func (d *daemon) stop() error {
	if d.cmd == nil {
		return nil
	}
	d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck -- a daemon already gone is reaped below
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck -- reaped by the Wait in flight
		<-done
		err = errors.New("wormholed ignored SIGTERM for 15 s and was killed")
	}
	d.cmd = nil
	d.stderr.Close()
	if rmErr := os.RemoveAll(d.dir); err == nil {
		err = rmErr
	}
	return err
}
