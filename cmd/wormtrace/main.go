// Command wormtrace renders flit-level space-time diagrams for small
// wormhole scenarios — the fastest way to see blocking, virtual-channel
// sharing, drop-on-delay, and deadlock with your own eyes.
//
// Usage:
//
//	wormtrace -scenario line -msgs 3 -span 5 -l 4 -b 1
//	wormtrace -scenario line -msgs 3 -span 5 -l 4 -b 2
//	wormtrace -scenario line -msgs 2 -b 1 -drop
//	wormtrace -scenario ring -msgs 2 -b 1          # deadlock, frozen frame
//	wormtrace -scenario ring -msgs 2 -b 2          # resolved by a 2nd VC
//	wormtrace -scenario butterfly -msgs 6 -b 1
//
// Every invocation is one run with a telemetry event ring attached, and
// -format picks the renderer over its events: "ascii" (default) draws the
// in-terminal space-time diagram; "chrome" emits them as Chrome trace-event
// JSON — open it in Perfetto (ui.perfetto.dev) or chrome://tracing. The
// ASCII reconstruction assumes rigid worms and refuses deep-engine configs
// (-d > 1 or -shared); the chrome renderer handles both engines.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"wormhole/internal/deadlock"
	"wormhole/internal/graph"
	"wormhole/internal/message"
	"wormhole/internal/rng"
	"wormhole/internal/telemetry"
	"wormhole/internal/topology"
	"wormhole/internal/trace"
	"wormhole/internal/vcsim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, writes output to
// stdout/stderr, and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wormtrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scenario = fs.String("scenario", "line", "line|ring|butterfly")
		msgs     = fs.Int("msgs", 2, "number of worms")
		span     = fs.Int("span", 5, "path length (line scenario)")
		l        = fs.Int("l", 4, "flits per worm")
		b        = fs.Int("b", 1, "virtual channels")
		drop     = fs.Bool("drop", false, "drop-on-delay mode")
		n        = fs.Int("n", 8, "butterfly inputs / ring nodes")
		seed     = fs.Uint64("seed", 7, "random seed")
		format   = fs.String("format", "ascii", "ascii|chrome (chrome = Perfetto trace-event JSON)")
		d        = fs.Int("d", 1, "lane depth (d > 1 selects the deep engine)")
		shared   = fs.Bool("shared", false, "shared per-edge flit pool (deep engine)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0 // match flag.ExitOnError: -h prints usage and succeeds
		}
		return 2
	}

	switch {
	case *format != "ascii" && *format != "chrome":
		return usage(stderr, "unknown format %q (want ascii or chrome)", *format)
	case *msgs < 0:
		return usage(stderr, "-msgs %d: want 0 or more worms", *msgs)
	case *l < 1 || *b < 1 || *d < 1:
		return usage(stderr, "-l %d -b %d -d %d: flits per worm, virtual channels and lane depth must each be at least 1", *l, *b, *d)
	}

	var set *message.Set
	switch *scenario {
	case "line":
		if *span < 0 {
			return usage(stderr, "-span %d: want a path length of 0 or more", *span)
		}
		g := topology.NewLinearArray(*span + 1)
		set = message.NewSet(g)
		route := message.ShortestPathRouter(g)
		for i := 0; i < *msgs; i++ {
			set.Add(0, graph.NodeID(*span), *l, route(0, graph.NodeID(*span)))
		}
	case "ring":
		if *n < 2 {
			return usage(stderr, "-n %d: a ring needs at least 2 nodes", *n)
		}
		r := deadlock.NewRing(*n, 1)
		starts := make([]int, *msgs)
		for i := range starts {
			starts[i] = i * *n / *msgs
		}
		set = r.SparseWorkload(starts, *n-1, *l)
	case "butterfly":
		if *n < 2 || *n&(*n-1) != 0 {
			return usage(stderr, "-n %d: a butterfly needs a power-of-two input count, at least 2", *n)
		}
		bf := topology.NewButterfly(*n)
		set = message.NewSet(bf.G)
		r := rng.New(*seed)
		for i := 0; i < *msgs; i++ {
			src, dst := r.Intn(*n), r.Intn(*n)
			set.Add(bf.Input(src), bf.Output(dst), *l, bf.Route(src, dst))
		}
	default:
		return usage(stderr, "unknown scenario %q", *scenario)
	}

	// One traced run, whatever the format. Every flit move is one advance
	// event, so Σ(D+L) events bounds advances; 4× covers the
	// park/wake/credit/inject/deliver envelope on these small scenarios.
	capacity := 1024
	for _, m := range set.Msgs {
		capacity += 4 * (len(m.Path) + m.Length)
	}
	events := telemetry.NewTrace(capacity)
	cfg := vcsim.Config{
		VirtualChannels: *b,
		LaneDepth:       *d,
		SharedPool:      *shared,
		DropOnDelay:     *drop,
		Trace:           events,
	}
	rec := trace.NewRecorder(set)
	if *format == "ascii" {
		if err := rec.Observe(&cfg); err != nil {
			return usage(stderr, "%v", err)
		}
	}
	res := vcsim.Run(set, nil, cfg)
	if lost := events.Dropped(); lost != 0 {
		fmt.Fprintf(stderr, "wormtrace: event ring overflowed (%d events lost); the scenario is too large to trace\n", lost)
		return 1
	}
	if *format == "ascii" {
		fmt.Fprintf(stdout, "scenario=%s msgs=%d B=%d L=%d: steps=%d delivered=%d dropped=%d stalls=%d deadlocked=%v\n\n",
			*scenario, set.Len(), *b, *l, res.Steps, res.Delivered, res.Dropped, res.TotalStalls, res.Deadlocked)
		fmt.Fprint(stdout, rec.Render())
	} else if err := telemetry.WriteChrome(stdout, events.Events()); err != nil {
		fmt.Fprintf(stderr, "wormtrace: %v\n", err)
		return 1
	}
	return 0
}

// usage reports a bad invocation in one line and returns exit code 2.
func usage(stderr io.Writer, format string, args ...any) int {
	fmt.Fprintf(stderr, "wormtrace: "+format+"\n", args...)
	return 2
}
