// Command wormbench runs the paper-reproduction experiments and prints
// their result tables.
//
// Usage:
//
//	wormbench -list
//	wormbench -run T1 [-seed 42] [-quick] [-trials 5] [-workers 8]
//	wormbench -all
//	wormbench ... [-cpuprofile cpu.prof] [-memprofile mem.prof]
//
// Experiment IDs are catalogued in README.md (F1, F2 for the figures;
// T1–T11 for the theorem/remark reproductions; A1–A5 for the design
// ablations; and the open-loop traffic studies: T12 steady-state load
// curves and saturation rate vs B, T13 buffer architectures — lane depth
// and shared pools, T14 and T15 the 256- and 1024-input scale studies,
// T16 graceful degradation under lane faults). -workers fans the
// experiment's independent jobs across a worker pool (0 = GOMAXPROCS);
// tables are byte-identical for any value. It is the one parallel axis;
// performance is measured by benchmark/ (see benchmark/README.md), not
// by this command. -scale overrides the butterfly size of T14 and T15;
// a size they cannot run (not a power of two, or too small) is reported
// as a one-line error and exit status 1 before anything runs.
//
// -cpuprofile and -memprofile write pprof profiles covering whatever the
// invocation ran, so performance work reproduces from the committed
// harness instead of ad-hoc patches:
//
//	go run ./cmd/wormbench -run T12 -cpuprofile cpu.prof
//	go tool pprof -top cpu.prof
//
// -telemetry FILE attaches hot-path counters to whatever the invocation
// runs and writes the resulting snapshot as JSON: with -run/-all every
// simulator feeds one aggregate; alone it runs the knee smoke workload
// with counters and a windowed time series. -http ADDR additionally
// serves the latest published snapshot at /metrics and the standard
// net/http/pprof handlers at /debug/pprof for live inspection.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"wormhole/internal/core"
	"wormhole/internal/stats"
	"wormhole/internal/telemetry"
	"wormhole/internal/traffic"
	"wormhole/internal/vcsim"
)

func main() {
	// Defers (the profile writers below) must run before the process
	// exits, including on failures — os.Exit skips them — so the real
	// work happens in run() and main only converts its code.
	os.Exit(run())
}

func run() int {
	var (
		list     = flag.Bool("list", false, "list available experiments")
		run      = flag.String("run", "", "experiment ID to run (e.g. T1)")
		all      = flag.Bool("all", false, "run every experiment")
		seed     = flag.Uint64("seed", 42, "experiment seed")
		quick    = flag.Bool("quick", false, "shrink sweeps to smoke-test scale")
		trials   = flag.Int("trials", 0, "override trial count (0 = default)")
		workers  = flag.Int("workers", 0, "parallel harness workers (0 = GOMAXPROCS)")
		scale    = flag.Int("scale", 0, "network-size override for scale experiments (T14, T15; 0 = default)")
		csvOut   = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write an allocation profile of the run to this file")
		telOut   = flag.String("telemetry", "", "write a telemetry snapshot JSON to this file (attaches counters to whatever runs; alone it runs the knee smoke workload)")
		httpAddr = flag.String("http", "", "serve live telemetry (/metrics) and net/http/pprof (/debug/pprof) on this address")
		ckptDir  = flag.String("checkpoint", "", "memoize completed harness jobs under this directory so an interrupted run resumes on re-invocation (long offline sweeps; tables are byte-identical with or without it)")
	)
	flag.Parse()

	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wormbench: http:", err)
			return 1
		}
		defer ln.Close()
		http.Handle("/metrics", telemetry.Default)
		fmt.Fprintf(os.Stderr, "wormbench: serving /metrics and /debug/pprof on http://%s\n", ln.Addr())
		go http.Serve(ln, nil) //nolint:errcheck -- best-effort diagnostics server
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wormbench: cpuprofile:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "wormbench: cpuprofile:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "wormbench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush the final allocation state
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "wormbench: memprofile:", err)
			}
		}()
	}

	cfg := core.Config{Seed: *seed, Quick: *quick, Trials: *trials, Workers: *workers, Scale: *scale}
	if *telOut != "" {
		cfg.Telemetry = telemetry.NewAggregate()
	}

	switch {
	case *list:
		for _, e := range core.Experiments() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
	case *all:
		for _, e := range core.Experiments() {
			if code := runOne(e.ID, cfg, *csvOut, *ckptDir); code != 0 {
				return code
			}
		}
		return writeTelemetry(*telOut, cfg.Telemetry)
	case *run != "":
		if code := runOne(*run, cfg, *csvOut, *ckptDir); code != 0 {
			return code
		}
		return writeTelemetry(*telOut, cfg.Telemetry)
	case *telOut != "":
		// Standalone -telemetry: run the knee smoke workload with the full
		// observability surface and export its snapshot (the CI smoke step).
		snap, err := telemetrySmoke()
		if err != nil {
			fmt.Fprintln(os.Stderr, "wormbench: telemetry:", err)
			return 1
		}
		if err := telemetry.WriteSnapshotFile(*telOut, snap); err != nil {
			fmt.Fprintln(os.Stderr, "wormbench: telemetry:", err)
			return 1
		}
		fmt.Printf("telemetry: knee smoke snapshot (steps=%d, %d windows) written to %s\n",
			snap.Counter("steps"), len(snap.Windows), *telOut)
	default:
		flag.Usage()
		return 2
	}
	return 0
}

// writeTelemetry publishes and exports the aggregate collected across the
// experiments just run. A nil aggregate (no -telemetry flag) is a no-op.
func writeTelemetry(path string, agg *telemetry.Aggregate) int {
	if agg == nil {
		return 0
	}
	snap := agg.Snapshot()
	telemetry.Default.Publish(snap)
	if err := telemetry.WriteSnapshotFile(path, snap); err != nil {
		fmt.Fprintln(os.Stderr, "wormbench: telemetry:", err)
		return 1
	}
	fmt.Printf("telemetry: aggregate of %d registries (steps=%d) written to %s\n",
		agg.Len(), snap.Counter("steps"), path)
	return 0
}

// telemetrySmoke runs the knee workload — the 64-input butterfly at the
// near-saturation operating point (B=2, rate 0.3; the d=1 knee is
// ~0.306) — once with the full observability surface attached: hot-path
// counters plus a windowed time series published to telemetry.Default.
// Standalone wormbench -telemetry (the CI telemetry smoke step) uses it.
func telemetrySmoke() (telemetry.Snapshot, error) {
	met := telemetry.NewMetrics()
	r, err := traffic.NewRunner(traffic.Config{
		Net:             traffic.NewButterflyNet(64),
		VirtualChannels: 2,
		MessageLength:   6,
		Arbitration:     vcsim.ArbAge,
		Process:         traffic.Poisson,
		Rate:            0.3,
		Pattern:         traffic.Uniform,
		Warmup:          2048,
		Measure:         8192,
		Drain:           32768,
		MaxBacklog:      65536,
		Seed:            17,
		Metrics:         met,
		Window:          1024,
		Publish:         telemetry.Default,
	})
	if err != nil {
		return telemetry.Snapshot{}, err
	}
	if _, err := r.Run(); err != nil {
		return telemetry.Snapshot{}, err
	}
	s := met.Snapshot()
	s.Windows = append([]telemetry.WindowStats(nil), r.Windows()...)
	return s, nil
}

func runOne(id string, cfg core.Config, csvOut bool, ckptDir string) int {
	if ckptDir != "" {
		// A Checkpoint must be fresh per experiment run; keying the store
		// by experiment ID keeps -all runs resumable per experiment.
		cfg.Checkpoint = &core.Checkpoint{Store: core.DirStore{Dir: filepath.Join(ckptDir, id)}}
	}
	start := time.Now()
	tables, err := core.Run(context.Background(), id, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wormbench:", err)
		return 1
	}
	if csvOut {
		if err := stats.WriteTablesCSV(os.Stdout, tables); err != nil {
			fmt.Fprintln(os.Stderr, "wormbench: csv:", err)
			return 1
		}
		return 0
	}
	for _, t := range tables {
		fmt.Println(t)
	}
	fmt.Printf("[%s done in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	return 0
}
