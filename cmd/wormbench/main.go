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
// as a one-line error and exit status 1 before anything runs — under
// -all too, where every experiment is checked before the first starts.
//
// -cpuprofile and -memprofile write pprof profiles covering whatever the
// invocation ran, so performance work reproduces from the committed
// harness instead of ad-hoc patches:
//
//	go run ./cmd/wormbench -run T12 -cpuprofile cpu.prof
//	go tool pprof -top cpu.prof
//
// -telemetry FILE attaches hot-path counters to every simulator -run or
// -all drives, folds them into one aggregate and writes its snapshot as
// JSON once the last experiment is done (cmd/netviz reads it back). The
// file is created before anything runs, so a path that cannot be written
// costs no simulation. A live per-window feed is wormholed's
// /api/v1/jobs/{id}/metrics.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"wormhole/internal/core"
	"wormhole/internal/snap"
	"wormhole/internal/stats"
	"wormhole/internal/telemetry"
)

func main() {
	// Defers (the profile writers below) must run before the process
	// exits, including on failures — os.Exit skips them — so the real
	// work happens in run() and main only converts its code.
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, writes tables to
// stdout and diagnostics to stderr, and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wormbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list    = fs.Bool("list", false, "list available experiments")
		runID   = fs.String("run", "", "experiment ID to run (e.g. T1)")
		all     = fs.Bool("all", false, "run every experiment")
		seed    = fs.Uint64("seed", 42, "experiment seed")
		quick   = fs.Bool("quick", false, "shrink sweeps to smoke-test scale")
		trials  = fs.Int("trials", 0, "override trial count (0 = default)")
		workers = fs.Int("workers", 0, "parallel harness workers (0 = GOMAXPROCS)")
		scale   = fs.Int("scale", 0, "network-size override for scale experiments (T14, T15; 0 = default)")
		csvOut  = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		cpuProf = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf = fs.String("memprofile", "", "write an allocation profile of the run to this file")
		telOut  = fs.String("telemetry", "", "with -run or -all: attach counters to every simulator and write their aggregate snapshot as JSON to this file")
		ckptDir = fs.String("checkpoint", "", "memoize completed harness jobs under this directory so an interrupted run resumes when re-invoked with the same -seed, -quick, -trials and -scale (long offline sweeps; other flags recompute, and tables are byte-identical with or without it)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0 // match flag.ExitOnError: -h prints usage and succeeds
		}
		return 2
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(stderr, "wormbench: cpuprofile:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "wormbench: cpuprofile:", err)
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
				fmt.Fprintln(stderr, "wormbench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush the final allocation state
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(stderr, "wormbench: memprofile:", err)
			}
		}()
	}

	var ids []string
	switch {
	case *list:
		for _, e := range core.Experiments() {
			fmt.Fprintf(stdout, "%-4s %s\n", e.ID, e.Title)
		}
		return 0
	case *all:
		for _, e := range core.Experiments() {
			ids = append(ids, e.ID)
		}
	case *runID != "":
		ids = []string{*runID}
	default:
		fs.Usage()
		return 2
	}

	cfg := core.Config{Seed: *seed, Quick: *quick, Trials: *trials, Workers: *workers, Scale: *scale}
	if *ckptDir != "" {
		// One store for every experiment: core.Run keys each job by its
		// experiment, -seed, -quick, -trials and -scale, so a directory
		// reused under other flags recomputes instead of replaying.
		cfg.Checkpoint = core.DirStore{FS: snap.OS, Dir: *ckptDir}
	}
	for _, id := range ids {
		if err := core.Validate(id, cfg); err != nil {
			fmt.Fprintln(stderr, "wormbench:", err)
			return 1
		}
	}
	if *telOut != "" {
		// Like -cpuprofile: a path that cannot be written fails here, not
		// after the experiments have run.
		f, err := os.Create(*telOut)
		if err != nil {
			fmt.Fprintln(stderr, "wormbench: telemetry:", err)
			return 1
		}
		f.Close()
		cfg.Telemetry = telemetry.NewAggregate()
	}
	for _, id := range ids {
		if err := runOne(stdout, id, cfg, *csvOut); err != nil {
			fmt.Fprintln(stderr, "wormbench:", err)
			return 1
		}
	}
	if agg := cfg.Telemetry; agg != nil {
		snap := agg.Snapshot()
		if err := telemetry.WriteSnapshotFile(*telOut, snap); err != nil {
			fmt.Fprintln(stderr, "wormbench: telemetry:", err)
			return 1
		}
		fmt.Fprintf(stdout, "telemetry: aggregate of %d registries (steps=%d) written to %s\n",
			agg.Len(), snap.Counter("steps"), *telOut)
	}
	return 0
}

// runOne runs one experiment and renders its tables to stdout.
func runOne(stdout io.Writer, id string, cfg core.Config, csvOut bool) error {
	start := time.Now()
	tables, err := core.Run(context.Background(), id, cfg)
	if err != nil {
		return err
	}
	if csvOut {
		if err := stats.WriteTablesCSV(stdout, tables); err != nil {
			return fmt.Errorf("csv: %w", err)
		}
		return nil
	}
	for _, t := range tables {
		fmt.Fprintln(stdout, t)
	}
	fmt.Fprintf(stdout, "[%s done in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	return nil
}
