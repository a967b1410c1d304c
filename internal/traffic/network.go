package traffic

import (
	"fmt"

	"wormhole/internal/graph"
	"wormhole/internal/topology"
)

// Network adapts a topology for open-loop traffic: a set of numbered
// endpoints, each with an injection node and a delivery node, plus a
// router between endpoint indices. The traffic engine is topology-
// agnostic — it only ever speaks endpoint indices — so any network with
// fixed single-path routing plugs in through this adapter.
//
// For indirect networks (butterflies) the injection and delivery nodes of
// endpoint i differ (input column i, output column i); for direct
// networks (meshes, toruses) they coincide.
//
// A Network is immutable once built — the adapters in this package
// compute every route arithmetically and keep no cache — so one Network
// is safe for concurrent use by multiple Runners. A caller-built Network
// keeps that guarantee as long as its function fields are themselves safe
// to call concurrently. Even a Network used by one Runner is called from
// two goroutines: AppendRoute runs on the Runner's arrival producer
// during the injection window, not on the goroutine that calls Run or
// Resume, so a router must not write state that the caller's own code
// (an OnStep hook, say) reads.
type Network struct {
	// G is the physical network.
	G *graph.Graph
	// Endpoints is the number of traffic endpoints.
	Endpoints int
	// Source returns the injection node of endpoint i.
	Source func(i int) graph.NodeID
	// Dest returns the delivery node of endpoint i.
	Dest func(i int) graph.NodeID
	// Route returns the path from endpoint src's injection node to
	// endpoint dst's delivery node as a fresh slice the caller owns. The
	// Runner does not call it; it serves callers that route outside one.
	Route func(src, dst int) graph.Path
	// AppendRoute appends that same path to buf and returns the extended
	// slice, allocating only when buf lacks the capacity. The Runner
	// routes every message through it into one reused buffer, and refuses
	// a Network without it.
	AppendRoute func(buf graph.Path, src, dst int) graph.Path
	// Label names the network in tables and errors.
	Label string
}

// MaxEndpoints bounds the endpoint count of a network sized by outside
// input (a wormholed sweep's size or dims, wormbench -scale): whoever
// holds such a number checks it against this before building anything,
// so an absurd size is an error up front instead of an allocation the
// process cannot survive. A rigid simulator on the costliest topology at
// the bound — a 65536-input butterfly, 2.1 M edges — holds ≈ 72 MB before
// it carries a message, network and Runner included (≈ 34 bytes per edge;
// deep lanes add 12 more); the largest documented scale is 4096 (≈ 3.4
// MB). vcsim's TestRetainedBytesPerEdge measures these figures and holds
// them to 40 bytes an edge.
const MaxEndpoints = 1 << 16

// MaxMessageLength bounds Config.MessageLength, which also arrives from
// outside (a wormholed sweep's message_length). On deep lanes every worm
// in flight carries one 4-byte progress counter per flit, allocated in
// one piece when it is injected: 16 KiB per worm at the bound, so the
// thousand-odd worms a knee-load run keeps in flight hold ≈ 16 MB, where
// an unbounded length is a single allocation the process cannot survive
// (2·10⁹ flits asked for 8 GB and died in the worker, fatally, again on
// every restart). The largest documented length is 20.
const MaxMessageLength = 1 << 12

// MaxWindows bounds the window count of a run, ⌈(Warmup + Measure +
// Drain) / Window⌉, whose terms also arrive from outside (a wormholed
// sweep's window and phase lengths). A Runner keeps one
// telemetry.WindowStats per window, and wormholed publishes, memoizes
// and snapshots that series: on a 2-input butterfly with one-step
// windows, 2²⁰ windows held 107 MB once the run was done (2¹⁶ held
// 7.5 MB), so a one-step window over a 2·10⁹-step measurement was an
// allocation the daemon could not survive, again on every restart.
// wormholed's benchmark sweep makes 21 windows and its e2e sweep 41.
const MaxWindows = 1 << 16

// NewButterflyNet adapts an n-input butterfly: endpoint i injects at
// input column i and delivers at output column i, routed on the unique
// bit-fixing path. The leveled DAG structure makes greedy wormhole
// routing deadlock-free for any B.
func NewButterflyNet(n int) *Network {
	bf := topology.NewButterfly(n)
	return &Network{
		G:           bf.G,
		Endpoints:   n,
		Source:      bf.Input,
		Dest:        bf.Output,
		Route:       bf.Route,
		AppendRoute: bf.AppendRoute,
		Label:       fmt.Sprintf("butterfly(n=%d)", n),
	}
}

// NewMeshNet adapts a mesh with the given per-dimension sizes: every node
// is an endpoint, routed dimension-order. Dimension-order routes on a
// mesh are deadlock-free.
func NewMeshNet(dims ...int) *Network {
	m := topology.NewMesh(dims...)
	return meshNet(m, fmt.Sprintf("mesh%v", dims))
}

// NewTorusNet adapts a torus with the given per-dimension sizes: every
// node is an endpoint, routed dimension-order (shortest way around each
// ring). Unlike the mesh, torus dimension-order routing can deadlock at
// B = 1 under heavy load — which is exactly the regime the open-loop
// engine is built to expose; the run reports Deadlocked when it happens.
func NewTorusNet(dims ...int) *Network {
	m := topology.NewTorus(dims...)
	return meshNet(m, fmt.Sprintf("torus%v", dims))
}

// meshNet adapts a mesh or torus: endpoint i is node i, routed on the
// dimension-order path.
func meshNet(m *topology.Mesh, label string) *Network {
	node := func(i int) graph.NodeID { return graph.NodeID(i) }
	return &Network{
		G:         m.G,
		Endpoints: m.G.NumNodes(),
		Source:    node,
		Dest:      node,
		Route: func(src, dst int) graph.Path {
			return m.DimensionOrderRoute(graph.NodeID(src), graph.NodeID(dst))
		},
		AppendRoute: func(buf graph.Path, src, dst int) graph.Path {
			return m.AppendRoute(buf, graph.NodeID(src), graph.NodeID(dst))
		},
		Label: label,
	}
}
