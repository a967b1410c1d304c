// Command benchmark is the repository's performance benchmark: seven
// named workloads over the simulator stack (vcsim → traffic →
// schedule/core → wormholed), three end-to-end metrics measured with
// tracing off, and a separate traced pass that attributes host time and
// exact event counts to each layer. It measures every layer from
// outside — by timing calls into the layers' public functions and the
// real wormbench / wormholed binaries — and checks every output it
// times. README.md in this directory documents the metrics, the
// workloads and why each exists.
//
// Usage (from the repository root):
//
//	bash benchmark/run.sh                      every workload, both passes
//	bash benchmark/run.sh -workload knee-rigid -seed 17 -seconds 10 -trace 0
//	bash benchmark/run.sh -runs 10 -out A.json all workloads at ten seeds
//	bash benchmark/run.sh -compare A.json B.json
//
// With -workload the last line of standard output is the one-line JSON
// result BENCHMARK.json's contract prescribes. Each workload runs in
// re-exec'd child processes of this program, so peak RSS and GC state
// never bleed between workloads or between set-up repeats.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// defaultSeed is the seed the golden digests in golden.json were
// recorded at.
const defaultSeed = 17

// processStart is when this process began: where a child's set-up time
// starts counting.
var processStart = time.Now()

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "run one workload and print the contract's JSON result as the last line (default: all workloads, both passes)")
		seed     = flag.Uint64("seed", defaultSeed, "workload seed: the same seed generates the same inputs")
		seconds  = flag.Int("seconds", 10, "how long one run measures")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced pass, per-layer metrics")
		smoke    = flag.Bool("smoke", false, "tiny scale for tests (goldens are not checked)")
		compare  = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
		runs     = flag.Int("runs", 1, "all-workloads mode: repeat every workload at seeds seed, seed+1, …")
		out      = flag.String("out", "", "all-workloads mode: result file (default .bench_build/result.json)")
		record   = flag.Bool("record", false, "all-workloads mode at the default seed: rewrite golden.json from this run's digests")
		child    = flag.String("child", "", "internal: run one child phase (measure, setup or traced)")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare needs two result files")
			return 2
		}
		code, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		return code
	}

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	env := runEnv{Root: root, Seed: *seed, Seconds: *seconds, Smoke: *smoke, Record: *record}

	if *child != "" {
		return childMain(env, *workload, *child)
	}
	if *seconds < 1 || *runs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds and -runs must be ≥ 1 and -trace 0 or 1")
		return 2
	}
	if err := buildBinaries(root); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}

	if *workload != "" {
		if _, ok := findWorkload(*workload); !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames(), ", "))
			return 2
		}
		rec := collectRecord(root)
		printRecord(os.Stdout, rec)
		env.CalibrationMS = rec.CalibrationMS
		res, err := runWorkload(env, *workload, *trace == 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		res.print(os.Stdout)
		line, err := json.Marshal(res.contract())
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		fmt.Println(string(line))
		if !res.Correct {
			return 1
		}
		return 0
	}
	return runAll(env, *runs, *out)
}

// runEnv is what every phase of a run needs to know.
type runEnv struct {
	Root    string // repository checkout (holds BENCHMARK.json)
	Seed    uint64
	Seconds int
	Smoke   bool
	Record  bool // golden.json is being rewritten, not checked
	// CalibrationMS is this invocation's calibrate(), reported by the
	// traced pass as bench.calibration_ms.
	CalibrationMS float64
}

// buildDir is where everything the benchmark builds or writes lives;
// .gitignore names it.
func (e runEnv) buildDir() string { return filepath.Join(e.Root, ".bench_build") }

func (e runEnv) bin(name string) string { return filepath.Join(e.buildDir(), "bin", name) }

// findRoot locates the checkout: the benchmark runs either from the
// repository root or (under `go run -C benchmark`) from this directory.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("BENCHMARK.json not found: run from the repository root (bash benchmark/run.sh)")
}

// runAll is the one command that prints every metric by name: every
// workload, untraced then traced, at `runs` consecutive seeds, written
// to one result file that -compare reads.
func runAll(env runEnv, runs int, out string) int {
	if out == "" {
		out = filepath.Join(env.buildDir(), "result.json")
	}
	file := resultFile{Record: collectRecord(env.Root)}
	file.Record.Seconds = env.Seconds
	file.Record.Smoke = env.Smoke
	env.CalibrationMS = file.Record.CalibrationMS
	printRecord(os.Stdout, file.Record)
	ok := true
	for r := 0; r < runs; r++ {
		e := env
		e.Seed = env.Seed + uint64(r)
		for _, w := range workloads {
			for _, traced := range []bool{false, true} {
				res, err := runWorkload(e, w.name, traced)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 2
				}
				res.print(os.Stdout)
				ok = ok && res.Correct
				file.Runs = append(file.Runs, res)
			}
		}
	}
	file.Record.LoadAvgEnd = loadAvg()
	fmt.Println("model: unvalidated against hardware (the repository holds no hardware reference results); no accuracy figure applies")
	blob, err := json.MarshalIndent(file, "", " ")
	if err == nil {
		err = os.WriteFile(out, blob, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	fmt.Println("result file:", out)
	if env.Record {
		if err := recordGolden(env, file); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "benchmark: FAILED: at least one operation or output check failed (see above)")
		return 1
	}
	return 0
}

// envRecord is the environment every result carries, so a number can
// be read against the machine that produced it.
type envRecord struct {
	NumCPU        int     `json:"nproc"`
	GoMaxProcs    int     `json:"gomaxprocs"` // pinned in every child
	GoVersion     string  `json:"go_version"`
	GitCommit     string  `json:"git_commit"`
	CalibrationMS float64 `json:"bench.calibration_ms"`
	LoadAvgStart  float64 `json:"loadavg_1m_start"`
	LoadAvgEnd    float64 `json:"loadavg_1m_end,omitempty"`
	Seconds       int     `json:"seconds,omitempty"`
	Smoke         bool    `json:"smoke,omitempty"`
}

func collectRecord(root string) envRecord {
	return envRecord{
		NumCPU:        runtime.NumCPU(),
		GoMaxProcs:    parallelism(),
		GoVersion:     runtime.Version(),
		GitCommit:     gitCommit(root),
		CalibrationMS: calibrate(),
		LoadAvgStart:  loadAvg(),
	}
}

func printRecord(w *os.File, r envRecord) {
	fmt.Fprintf(w, "env: nproc=%d GOMAXPROCS=%d %s commit=%s calibration=%.2fms loadavg=%.2f\n",
		r.NumCPU, r.GoMaxProcs, r.GoVersion, r.GitCommit, r.CalibrationMS, r.LoadAvgStart)
}

// parallelism is N = min(nproc, 4): the worker/client count of every
// parallel workload and the GOMAXPROCS pinned in every child.
func parallelism() int {
	return min(runtime.NumCPU(), 4)
}

// gitCommit reads HEAD without shelling out; a checkout that is not a
// git repository (the driver's) reports "unknown".
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	s := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(s, "ref: "); ok {
		blob, err := os.ReadFile(filepath.Join(root, ".git", ref))
		if err != nil {
			return "unknown"
		}
		s = strings.TrimSpace(string(blob))
	}
	return s
}

func loadAvg() float64 {
	blob, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	var v float64
	fmt.Sscan(string(blob), &v) //nolint:errcheck -- informational; 0 on a parse miss
	return v
}

// calibrate times a fixed pure-CPU xorshift loop. It is recorded for
// reading results across machines and never used to rescale a gate.
func calibrate() float64 {
	best := time.Duration(1 << 62)
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		x := uint64(0x9E3779B97F4A7C15)
		var sum uint64
		for i := 0; i < 1<<24; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			sum += x
		}
		d := time.Since(start)
		if sum == 0 { // defeat dead-code elimination
			d++
		}
		best = min(best, d)
	}
	return float64(best.Nanoseconds()) / 1e6
}
