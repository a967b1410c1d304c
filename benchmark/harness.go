package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"wormhole/internal/stats"
)

// minIterations is the floor on timed iterations per run; -seconds
// stretches a run, it never shortens it below this.
const minIterations = 5

// ops counts operations against the number attempted. An operation is
// one iteration, one saturation search, one CLI run, one HTTP request
// or one job; a Go error, a non-2xx, a job that does not reach done and
// an output that fails its check all count as failed.
type ops struct {
	mu        sync.Mutex
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"` // the first few, for the report
}

// done records one attempted operation and whether it failed.
func (o *ops) done(err error) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.Attempted++
	if err == nil {
		return true
	}
	o.Failed++
	if len(o.Errors) < 8 {
		o.Errors = append(o.Errors, err.Error())
	}
	return false
}

// merge folds a child's counts into o.
func (o *ops) merge(c *ops) {
	o.Attempted += c.Attempted
	o.Failed += c.Failed
	o.Errors = append(o.Errors, c.Errors...)
}

// instance is one workload, set up and warmed, inside a child process.
type instance interface {
	// measure runs timed iterations with tracing off for at least d.
	measure(d time.Duration, o *ops) timing
	// traced runs the traced pass within roughly d and returns the
	// per-layer metrics this workload produces.
	traced(d time.Duration, o *ops, tr *tracer) map[string]float64
	// peakRSSMB is the peak resident set of the process that did the
	// workload's work: this child, or the wormbench / wormholed child.
	peakRSSMB() float64
	close() error
}

// timing is what one measuring run found.
type timing struct {
	// Quiet is wall_s: the host seconds of one iteration on an
	// undisturbed machine. Every iteration does identical work, split at
	// fixed points into segments of a millisecond or two; Quiet is the sum
	// over segments of the fastest time any iteration took for that
	// segment. Other tenants of a shared machine only ever slow a
	// segment down, so the per-segment minimum converges on the
	// undisturbed time where a median of whole iterations follows the
	// machine's mood: on this sandbox, over 40 minutes of knee-rigid,
	// ten-run spreads were 12% (p90 24%) for the median and 5.5% (p90
	// 10%) for this estimator. A change to the code moves every sample
	// of a segment, minimum included.
	Quiet float64
	// Quiets is that estimate for each variant of the timed loop; Quiet
	// is their mean.
	Quiets []float64
	// Whole is one wall-clock sample per timed iteration, for the record.
	Whole []float64
	// Result is what the workload's result digest is taken over.
	Result []byte
}

// segTimer splits the iteration in progress into segments: mark closes
// the current one. A workload's hooks mark unconditionally; only
// timedLoop reads the segments. A nil *segTimer records nothing.
type segTimer struct {
	last time.Time
	cur  []float64
}

func (s *segTimer) mark() {
	if s == nil {
		return
	}
	now := time.Now()
	s.cur = append(s.cur, now.Sub(s.last).Seconds())
	s.last = now
}

// timedLoop runs iter until d has elapsed and minIterations are done,
// collecting garbage outside the timed section. Iteration i runs
// variant i mod variants, and every variant runs equally often (a
// minimum over fewer samples reads higher): a workload whose running time depends on its
// random inputs more than on the machine names several variants (inputs
// derived from the one seed), and the traced pass alternates untraced
// and traced iterations, so that every variant sees the same machine.
// Every iteration of a variant must return the bytes, and mark the
// segments, its first one did.
func timedLoop(env runEnv, d time.Duration, o *ops, seg *segTimer, variants int, iter func(variant, i int) ([]byte, error)) timing {
	floor := max(minIterations, 2*variants)
	if env.Smoke {
		d, floor = 0, max(2, variants)
	}
	var t timing
	first := make([][]byte, variants)
	best := make([][]float64, variants)
	start := time.Now()
	for i := 0; i < floor || time.Since(start) < d || i%variants != 0; i++ {
		v := i % variants
		runtime.GC()
		seg.cur, seg.last = seg.cur[:0], time.Now()
		t0 := seg.last
		out, err := iter(v, i)
		seg.mark()
		t.Whole = append(t.Whole, time.Since(t0).Seconds())
		switch {
		case err != nil:
		case first[v] == nil:
			first[v], best[v] = out, slices.Clone(seg.cur)
		case !bytes.Equal(out, first[v]):
			err = fmt.Errorf("iteration %d returned a different result than the first", i+1)
		case len(seg.cur) != len(best[v]):
			err = fmt.Errorf("iteration %d ran in %d segments, the first in %d", i+1, len(seg.cur), len(best[v]))
		default:
			for k, s := range seg.cur {
				best[v][k] = min(best[v][k], s)
			}
		}
		o.done(err)
	}
	for v := range best {
		t.Quiets = append(t.Quiets, sum(best[v]))
		t.Result = append(t.Result, first[v]...)
	}
	t.Quiet = sum(t.Quiets) / float64(variants)
	return t
}

// interleave is the traced pass's timed loop: it alternates untraced
// and traced iterations for d, so both see the same machine, checks
// that they return the same result, and returns the undisturbed time of
// an iteration of each kind and how many traced ones ran. The
// difference of the two times is the tracing overhead.
func interleave(env runEnv, d time.Duration, o *ops, seg *segTimer, iter func(tr *tracer, i int) ([]byte, error), tr *tracer) (untraced, traced float64, tracedIters int) {
	t := timedLoop(env, d, o, seg, 2, func(variant, i int) ([]byte, error) {
		if variant == 0 {
			return iter(nil, i)
		}
		return iter(tr, i)
	})
	if half := len(t.Result) / 2; !bytes.Equal(t.Result[:half], t.Result[half:]) {
		o.done(errors.New("traced and untraced iterations returned different results"))
	}
	return t.Quiets[0], t.Quiets[1], len(t.Whole) / 2
}

// childReport is the one JSON line a child prints.
type childReport struct {
	*ops
	Result      string             `json:"result_sha256,omitempty"`
	StartUnixNs int64              `json:"start_unix_ns"`          // this process started
	Setup       []float64          `json:"setup_s,omitempty"`      // set-up's segments, process start → warmed
	Quiet       float64            `json:"wall_s,omitempty"`       // timing.Quiet
	Whole       []float64          `json:"iterations_s,omitempty"` // timing.Whole
	PeakRSSMB   float64            `json:"peak_rss_mb,omitempty"`
	Layer       map[string]float64 `json:"layer,omitempty"`
	SelfTime    []selfRow          `json:"self_time,omitempty"`
	TraceFile   string             `json:"trace_file,omitempty"`
}

// childMain is one phase of one workload in its own process.
func childMain(env runEnv, name, kind string) int {
	def, ok := findWorkload(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: child: unknown workload %q\n", name)
		return 2
	}
	rep := childReport{ops: &ops{}}
	var tr *tracer
	if kind == "traced" {
		tr = newTracer()
	}
	seg := &segTimer{last: processStart}
	inst, err := def.setup(env, tr, seg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: set-up: %v\n", name, err)
		return 2
	}
	seg.mark()
	rep.StartUnixNs, rep.Setup = processStart.UnixNano(), slices.Clone(seg.cur)
	d := time.Duration(env.Seconds) * time.Second
	switch kind {
	case "setup":
	case "measure":
		t := inst.measure(d, rep.ops)
		rep.Quiet, rep.Whole = t.Quiet, t.Whole
		sum := sha256.Sum256(t.Result)
		rep.Result = hex.EncodeToString(sum[:])
	case "traced":
		rep.Layer = inst.traced(d/2, rep.ops, tr)
	default:
		fmt.Fprintf(os.Stderr, "benchmark: unknown child phase %q\n", kind)
		return 2
	}
	if err := inst.close(); err != nil {
		rep.done(fmt.Errorf("close: %w", err))
	}
	rep.PeakRSSMB = inst.peakRSSMB()
	if tr != nil {
		rep.SelfTime = tr.selfTimes()
		rep.TraceFile = filepath.Join(env.buildDir(), "trace-"+name+".json")
		if err := tr.writeChrome(rep.TraceFile); err != nil {
			rep.done(fmt.Errorf("trace file: %w", err))
		}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: child:", err)
		return 2
	}
	fmt.Println(string(line))
	return 0
}

// childEnv marks a re-exec'd child. The benchmark binary ignores it;
// the smoke test's binary, which stands in for it, dispatches on it.
const childEnv = "WORMHOLE_BENCHMARK_CHILD"

// spawnChild re-execs this program for one phase with GOMAXPROCS
// pinned, and returns its report plus the segments of its set-up: the
// spawn, then the child's own.
func spawnChild(env runEnv, name, kind string) (childReport, []float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return childReport{}, nil, err
	}
	args := []string{"-child", kind, "-workload", name,
		"-seed", strconv.FormatUint(env.Seed, 10), "-seconds", strconv.Itoa(env.Seconds)}
	if env.Smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Dir = env.Root
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(parallelism()), childEnv+"=1")
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	spawned := time.Now()
	if err := cmd.Run(); err != nil {
		return childReport{}, nil, fmt.Errorf("%s %s child: %w", name, kind, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	rep := childReport{ops: &ops{}}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return childReport{}, nil, fmt.Errorf("%s %s child: bad report: %w", name, kind, err)
	}
	return rep, append([]float64{float64(rep.StartUnixNs-spawned.UnixNano()) / 1e9}, rep.Setup...), nil
}

// setup_s is taken over the children that set a workload up in one
// untraced run: the measuring child plus set-up-only children, at least
// minSetups in all, and for a workload that sets up quickly as many as
// fit in setupBudget of set-up time, up to maxSetups — a short set-up is
// the noisiest, and the cheapest to repeat. Set-up is the same work in
// every child, so it is estimated as wall_s is: split into segments
// (spawn, builds, the warm-up iterations' own segments), the fastest
// child per segment, summed.
const (
	minSetups   = 3
	maxSetups   = 7
	setupBudget = 3.0 // seconds
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadResult is one workload's run, untraced or traced.
type workloadResult struct {
	Workload    string            `json:"workload"`
	Seed        uint64            `json:"seed"`
	Traced      bool              `json:"traced"`
	Correct     bool              `json:"correct"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Errors      []string          `json:"errors,omitempty"`
	Result      string            `json:"result_sha256,omitempty"`
	WholeMedian float64           `json:"whole_iteration_median_s,omitempty"`
	Metrics     map[string]metric `json:"metrics"`
	Samples     map[string]int    `json:"samples,omitempty"` // sample count behind each median
	SelfTime    []selfRow         `json:"self_time,omitempty"`
	TraceFile   string            `json:"trace_file,omitempty"`
}

// contract is the last-line JSON object the driver reads.
func (r workloadResult) contract() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics}
}

func (r workloadResult) print(w io.Writer) {
	pass := "end-to-end, tracing off"
	if r.Traced {
		pass = "traced pass, per-layer"
	}
	fmt.Fprintf(w, "\n== %s  seed=%d  (%s)  operations=%d failed=%d\n", r.Workload, r.Seed, pass, r.Attempted, r.Failed)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		note := ""
		switch n := r.Samples[name]; {
		case name == "wall_s" && n > 0:
			note = fmt.Sprintf("  (undisturbed estimate from %d iterations; whole-iteration median %.6g s)", n, r.WholeMedian)
		case n > 0:
			note = fmt.Sprintf("  (per-segment minimum over %d children)", n)
		}
		fmt.Fprintf(w, "  %-38s %14.6g %s%s\n", name, m.Value, m.Unit, note)
	}
	if r.Result != "" {
		fmt.Fprintf(w, "  result sha256 %s\n", r.Result)
	}
	if len(r.SelfTime) > 0 {
		fmt.Fprintf(w, "  %-38s %8s %12s %12s\n", "span (self = span − children)", "count", "total ms", "self ms")
		for _, row := range r.SelfTime {
			fmt.Fprintf(w, "  %-38s %8d %12.3f %12.3f\n", row.Name, row.Count, row.TotalMS, row.SelfMS)
		}
		fmt.Fprintf(w, "  trace file %s\n", r.TraceFile)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  FAILED: %s\n", e)
	}
}

// runWorkload runs one workload as the driver does: untraced it spawns
// one measuring child and at least minSetups−1 set-up-only children; traced
// it spawns one traced child. Output checks that need the golden file
// happen here, in the parent.
func runWorkload(env runEnv, name string, traced bool) (workloadResult, error) {
	spec, err := loadSpec(env.Root)
	if err != nil {
		return workloadResult{}, err
	}
	res := workloadResult{Workload: name, Seed: env.Seed, Traced: traced, Metrics: map[string]metric{}, Samples: map[string]int{}}
	total := &ops{}
	if traced {
		rep, _, err := spawnChild(env, name, "traced")
		if err != nil {
			return workloadResult{}, err
		}
		total.merge(rep.ops)
		if rep.Layer == nil {
			rep.Layer = map[string]float64{}
		}
		rep.Layer["bench.calibration_ms"] = env.CalibrationMS
		// Every per-layer metric is printed on every workload; one that
		// does not apply to this workload reads 0.
		for _, item := range spec.PerLayer {
			res.Metrics[item.Name] = metric{rep.Layer[item.Name], item.Unit}
			delete(rep.Layer, item.Name)
		}
		for stray := range rep.Layer {
			total.done(fmt.Errorf("per-layer metric %q is not declared in BENCHMARK.json", stray))
		}
		res.SelfTime, res.TraceFile = rep.SelfTime, rep.TraceFile
	} else {
		rep, setup, err := spawnChild(env, name, "measure")
		if err != nil {
			return workloadResult{}, err
		}
		total.merge(rep.ops)
		best, children, spent := setup, 1, sum(setup)
		lo, hi := minSetups, maxSetups
		if env.Smoke {
			lo, hi = 2, 2
		}
		for children < lo || (spent < setupBudget && children < hi) {
			r, s, err := spawnChild(env, name, "setup")
			if err != nil {
				return workloadResult{}, err
			}
			total.merge(r.ops)
			if len(s) != len(best) {
				return workloadResult{}, fmt.Errorf("%s: one child set up in %d segments, another in %d", name, len(best), len(s))
			}
			for k := range s {
				best[k] = min(best[k], s[k])
			}
			children, spent = children+1, spent+sum(s)
		}
		res.Result, res.WholeMedian = rep.Result, median(rep.Whole)
		if err := checkGolden(env, name, rep.Result); err != nil {
			total.done(err)
		}
		values := map[string]float64{
			"wall_s":      rep.Quiet,
			"setup_s":     sum(best),
			"peak_rss_mb": rep.PeakRSSMB,
		}
		res.Samples["wall_s"], res.Samples["setup_s"] = len(rep.Whole), children
		for _, item := range spec.EndToEnd {
			v, ok := values[item.Name]
			if !ok {
				return workloadResult{}, fmt.Errorf("BENCHMARK.json names end-to-end metric %q, which the benchmark does not measure", item.Name)
			}
			res.Metrics[item.Name] = metric{v, item.Unit}
		}
	}
	res.Attempted, res.Failed, res.Errors = total.Attempted, total.Failed, total.Errors
	res.Correct = total.Failed == 0 && total.Attempted > 0
	return res, nil
}

// specItem is one metric declaration in BENCHMARK.json.
type specItem struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json the benchmark itself reads:
// the metric names and units it must print, and the bounds -compare
// applies. The file is the single place those are declared.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specItem `json:"end_to_end"`
	PerLayer []specItem `json:"per_layer"`
}

func loadSpec(root string) (benchSpec, error) {
	var spec benchSpec
	blob, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		return spec, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec, nil
}

// --- golden digests ------------------------------------------------------------

type goldenFile struct {
	Seed    uint64            `json:"seed"`
	Digests map[string]string `json:"result_sha256"`
}

func goldenPath(env runEnv) string { return filepath.Join(env.Root, "benchmark", "golden.json") }

// checkGolden compares a workload's result digest with golden.json at
// the default seed and full scale; at any other seed only the
// differential checks inside the children apply.
func checkGolden(env runEnv, name, digest string) error {
	if env.Smoke || env.Record || env.Seed != defaultSeed {
		return nil
	}
	var g goldenFile
	blob, err := os.ReadFile(goldenPath(env))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(blob, &g); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	if want := g.Digests[name]; want != digest {
		return fmt.Errorf("%s: result sha256 %s differs from golden.json's %s: simulated results changed (re-record with -record only in a benchmark PR)", name, digest, want)
	}
	return nil
}

func recordGolden(env runEnv, file resultFile) error {
	if env.Smoke || env.Seed != defaultSeed {
		return errors.New("-record needs the default seed at full scale")
	}
	g := goldenFile{Seed: defaultSeed, Digests: map[string]string{}}
	for _, r := range file.Runs {
		if !r.Traced && r.Seed == defaultSeed {
			g.Digests[r.Workload] = r.Result
		}
	}
	blob, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath(env), append(blob, '\n'), 0o644)
}

// --- built binaries --------------------------------------------------------------

// buildBinaries builds wormbench and wormholed once per checkout into
// .bench_build/bin (the go command's own cache makes a rebuild of
// unchanged sources a no-op) and refuses to go on without them.
func buildBinaries(root string) error {
	env := runEnv{Root: root}
	for _, name := range []string{"wormbench", "wormholed"} {
		cmd := exec.Command("go", "build", "-o", env.bin(name), "./cmd/"+name)
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("go build ./cmd/%s: %w\n%s", name, err, out)
		}
		if _, err := os.Stat(env.bin(name)); err != nil {
			return fmt.Errorf("built binary missing: %w", err)
		}
	}
	return nil
}

// runBinary runs one built binary to completion with GOMAXPROCS
// inherited from this (pinned) child, and returns its stdout and peak
// RSS. With a segTimer it marks a segment whenever a CSV
// table title ("# …") arrives on stdout: wormbench prints each
// experiment's tables as it finishes, so the segments are the
// experiments, seen from outside.
func runBinary(env runEnv, seg *segTimer, name string, args ...string) (stdout []byte, rssMB float64, err error) {
	path := env.bin(name)
	if _, err := os.Stat(path); err != nil {
		return nil, 0, fmt.Errorf("built binary missing (run through benchmark/run.sh): %w", err)
	}
	cmd := exec.Command(path, args...)
	cmd.Dir = env.buildDir()
	var errOut bytes.Buffer
	cmd.Stderr = &errOut
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	lines := bufio.NewReader(pipe)
	for {
		line, rerr := lines.ReadBytes('\n')
		if bytes.HasPrefix(line, []byte("# ")) {
			seg.mark()
		}
		stdout = append(stdout, line...)
		if rerr != nil {
			break // io.EOF: the child closed stdout; Wait reports how it ended
		}
	}
	if err := cmd.Wait(); err != nil {
		return nil, 0, fmt.Errorf("%s %s: %w: %s", name, strings.Join(args, " "), err, errOut.String())
	}
	return stdout, maxRSSMB(cmd.ProcessState), nil
}

// maxRSSMB is ru_maxrss of a reaped child (Linux reports KiB).
func maxRSSMB(st *os.ProcessState) float64 {
	if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// selfRSSMB is ru_maxrss of this process.
func selfRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// --- small statistics ----------------------------------------------------------

func median(v []float64) float64 { return stats.Percentile(v, 0.5) }

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// overheadPct is how much slower (in percent) traced is than untraced.
func overheadPct(traced, untraced float64) float64 {
	if untraced == 0 {
		return 0
	}
	return 100 * (traced - untraced) / untraced
}
