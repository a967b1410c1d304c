// Command netviz inspects the repository's network topologies: it prints
// structural summaries and can emit Graphviz DOT (used to regenerate the
// paper's Figure 1).
//
// Usage:
//
//	netviz -topo butterfly -n 8            # summary
//	netviz -topo butterfly -n 8 -dot       # Figure 1 as DOT
//	netviz -topo twopass -n 8 -dot         # the Figure 2 unrolled network
//	netviz -topo mesh -n 4                 # 4x4 mesh
//	netviz -topo hypercube -n 16
//	netviz -topo adversary -b 2 -d 16 -c 6 # Theorem 2.2.1 network
//
// With -heatmap, netviz overlays a telemetry snapshot (wormbench
// -telemetry, or any telemetry.WriteSnapshotFile output) onto the
// topology: -dot colors each edge on a gray→red ramp by its share of the
// chosen -metric (stall count or mean occupancy), and without -dot it
// prints the hottest edges as a ranked table. The snapshot must have been
// recorded on the same topology — edge counts are checked.
//
//	netviz -topo butterfly -n 64 -heatmap snap.json -dot > heat.dot
//	netviz -topo butterfly -n 64 -heatmap snap.json -metric occupancy
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"wormhole/internal/graph"
	"wormhole/internal/lowerbound"
	"wormhole/internal/telemetry"
	"wormhole/internal/topology"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, writes output to
// stdout/stderr, and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("netviz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		topo = fs.String("topo", "butterfly", "butterfly|twopass|mesh|torus|hypercube|linear|adversary")
		n    = fs.Int("n", 8, "size parameter (inputs, side, or nodes)")
		b    = fs.Int("b", 2, "virtual channels (adversary topology)")
		d    = fs.Int("d", 16, "target dilation (adversary topology)")
		c    = fs.Int("c", 6, "target congestion (adversary topology)")
		dot  = fs.Bool("dot", false, "emit Graphviz DOT instead of a summary")
		heat = fs.String("heatmap", "", "telemetry snapshot JSON to overlay as a per-edge heatmap")
		met  = fs.String("metric", "stalls", "heatmap metric: stalls|occupancy")
		top  = fs.Int("top", 10, "rows in the hottest-edges table (-heatmap without -dot)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0 // match flag.ExitOnError: -h prints usage and succeeds
		}
		return 2
	}

	if *top < 0 {
		fmt.Fprintf(stderr, "netviz: -top %d: want 0 or more rows\n", *top)
		return 2
	}
	g, err := build(*topo, *n, *b, *d, *c, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "netviz: %v\n", err)
		return 2
	}

	if *heat != "" {
		return runHeatmap(g, *topo, *heat, *met, *top, *dot, stdout, stderr)
	}
	if *dot {
		fmt.Fprint(stdout, g.DOT(*topo))
		return 0
	}
	fmt.Fprintf(stdout, "%s: %d nodes, %d edges, max degree %d, DAG=%v, diameter=%d\n",
		*topo, g.NumNodes(), g.NumEdges(), g.MaxDegree(), graph.IsDAG(g), graph.Diameter(g))
	return 0
}

// build constructs the named topology. The constructors state their own
// preconditions — a power-of-two size, a dimension of at least 2, B ≥ 1 —
// by panicking with a one-line message; a size typed on the command line
// is a usage error, so that line comes back as the error instead of a
// goroutine trace.
func build(topo string, n, b, d, c int, stdout io.Writer) (g *graph.Graph, err error) {
	defer func() {
		if r := recover(); r != nil {
			msg, ok := r.(string)
			if !ok {
				panic(r)
			}
			err = errors.New(msg)
		}
	}()
	switch topo {
	case "butterfly":
		return topology.NewButterfly(n).G, nil
	case "twopass":
		return topology.NewTwoPassButterfly(n).G, nil
	case "mesh":
		return topology.NewMesh(n, n).G, nil
	case "torus":
		return topology.NewTorus(n, n).G, nil
	case "hypercube":
		return topology.NewHypercube(n).G, nil
	case "linear":
		return topology.NewLinearArray(n), nil
	case "adversary":
		con := lowerbound.Build(lowerbound.Params{B: b, TargetD: d, TargetC: c, L: 2 * d})
		fmt.Fprintf(stdout, "adversary: M'=%d replicas=%d C=%d D=%d primary-edges=%d\n",
			con.MPrime, con.Replicas, con.C, con.D, len(con.Primary))
		return con.G, nil
	default:
		return nil, fmt.Errorf("unknown topology %q", topo)
	}
}

// runHeatmap overlays the per-edge telemetry from snapshot file path onto g:
// as colored DOT when dot is set, otherwise as a ranked hottest-edges table.
func runHeatmap(g *graph.Graph, name, path, metric string, top int, dot bool, stdout, stderr io.Writer) int {
	snap, err := telemetry.ReadSnapshotFile(path)
	if err != nil {
		fmt.Fprintf(stderr, "netviz: %v\n", err)
		return 1
	}
	var vals []float64
	switch metric {
	case "stalls":
		vals = make([]float64, len(snap.EdgeStalls))
		for e, s := range snap.EdgeStalls {
			vals[e] = float64(s)
		}
	case "occupancy":
		vals = append([]float64(nil), snap.EdgeOcc...)
	default:
		fmt.Fprintf(stderr, "netviz: unknown metric %q (want stalls or occupancy)\n", metric)
		return 2
	}
	if len(vals) != g.NumEdges() {
		fmt.Fprintf(stderr, "netviz: snapshot covers %d edges but topology %s has %d — was it recorded on a different network?\n",
			len(vals), name, g.NumEdges())
		return 2
	}
	max := 0.0
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	if dot {
		fmt.Fprint(stdout, g.DOTEdges(name, func(e graph.EdgeID) string {
			v := vals[e]
			if v <= 0 || max <= 0 {
				return ""
			}
			t := v / max
			return fmt.Sprintf("color=%q penwidth=%.2f", heatColor(t), 1+2*t)
		}))
		return 0
	}
	order := make([]int, len(vals))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return vals[order[i]] > vals[order[j]] })
	if top < len(order) {
		order = order[:top]
	}
	fmt.Fprintf(stdout, "%s: hottest edges by %s (of %d)\n", name, metric, g.NumEdges())
	fmt.Fprintf(stdout, "%6s  %-16s %12s %10s\n", "edge", "tail>head", "stalls", "occ_mean")
	for _, e := range order {
		ed := g.Edge(graph.EdgeID(e))
		tl, hl := g.Label(ed.Tail), g.Label(ed.Head)
		if tl == "" {
			tl = fmt.Sprint(ed.Tail)
		}
		if hl == "" {
			hl = fmt.Sprint(ed.Head)
		}
		var stalls int64
		if e < len(snap.EdgeStalls) {
			stalls = snap.EdgeStalls[e]
		}
		var occ float64
		if e < len(snap.EdgeOcc) {
			occ = snap.EdgeOcc[e]
		}
		fmt.Fprintf(stdout, "%6d  %-16s %12d %10.4f\n", e, tl+">"+hl, stalls, occ)
	}
	return 0
}

// heatColor maps t in [0,1] onto a gray→red ramp (Graphviz hex color).
func heatColor(t float64) string {
	lerp := func(a, b int) int { return a + int(math.Round(t*float64(b-a))) }
	return fmt.Sprintf("#%02x%02x%02x", lerp(0xd9, 0xd7), lerp(0xd9, 0x30), lerp(0xd9, 0x27))
}
