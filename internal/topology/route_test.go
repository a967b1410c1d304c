package topology

import (
	"fmt"
	"slices"
	"testing"

	"wormhole/internal/graph"
	"wormhole/internal/rng"
)

// The routers compute edge IDs from construction order. These tests hold
// them to the graph they claim to describe: every route, exhaustively over
// (src, dst), must equal the route rebuilt hop by hop by searching the
// graph with FindEdge — the way the routers worked before they were made
// arithmetic — edge for edge, so a parallel-edge or tie-break drift shows.

// searchWalk rebuilds a route from its node sequence with FindEdge.
func searchWalk(t *testing.T, g *graph.Graph, nodes []graph.NodeID) graph.Path {
	t.Helper()
	var p graph.Path
	for i := 0; i+1 < len(nodes); i++ {
		eid := g.FindEdge(nodes[i], nodes[i+1])
		if eid == graph.None {
			t.Fatalf("no edge %d→%d in the graph", nodes[i], nodes[i+1])
		}
		p = append(p, eid)
	}
	return p
}

func checkRoute(t *testing.T, what string, g *graph.Graph, got, want graph.Path, src, dst graph.NodeID) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("%s: arithmetic route %v, graph search finds %v", what, got, want)
	}
	if err := got.Validate(g, src, dst); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// bitFixNodes is the bit-fixing node sequence from column src at level
// lvl0 to column dst, k levels further down.
func bitFixNodes(node func(w, lvl int) graph.NodeID, k, lvl0, src, dst int) []graph.NodeID {
	nodes := []graph.NodeID{node(src, lvl0)}
	w := src
	for i := 0; i < k; i++ {
		mask := 1 << (k - 1 - i)
		w = w&^mask | dst&mask
		nodes = append(nodes, node(w, lvl0+i+1))
	}
	return nodes
}

func TestButterflyRouteMatchesGraph(t *testing.T) {
	for _, n := range []int{2, 4, 8, 64} {
		bf := NewButterfly(n)
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				want := searchWalk(t, bf.G, bitFixNodes(bf.Node, bf.Levels, 0, src, dst))
				checkRoute(t, fmt.Sprintf("butterfly(%d) %d→%d", n, src, dst),
					bf.G, bf.Route(src, dst), want, bf.Input(src), bf.Output(dst))
			}
		}
	}
}

func TestTwoPassRouteMatchesGraph(t *testing.T) {
	for _, n := range []int{2, 8, 16} {
		tp := NewTwoPassButterfly(n)
		k := tp.Levels
		for src := 0; src < n; src++ {
			for mid := 0; mid < n; mid++ {
				for dst := 0; dst < n; dst++ {
					nodes := bitFixNodes(tp.Node, k, 0, src, mid)
					nodes = append(nodes, bitFixNodes(tp.Node, k, k, mid, dst)[1:]...)
					checkRoute(t, fmt.Sprintf("two-pass(%d) %d→%d→%d", n, src, mid, dst),
						tp.G, tp.Route(src, mid, dst), searchWalk(t, tp.G, nodes), tp.Input(src), tp.Output(dst))
				}
			}
		}
	}
}

// dimensionOrderNodes is the e-cube node sequence: one dimension at a
// time, lowest first, the shorter way around a torus ring (ascending on a
// tie; a size-2 ring has a single edge pair and is walked like a mesh).
func dimensionOrderNodes(m *Mesh, src, dst graph.NodeID) []graph.NodeID {
	nodes := []graph.NodeID{src}
	cur, want := m.Coord(src), m.Coord(dst)
	for d, size := range m.Dims {
		for cur[d] != want[d] {
			up := want[d] > cur[d]
			if m.Wrap && size > 2 {
				up = (want[d]-cur[d]+size)%size <= (cur[d]-want[d]+size)%size
			}
			if up {
				cur[d] = (cur[d] + 1) % size
			} else {
				cur[d] = (cur[d] - 1 + size) % size
			}
			nodes = append(nodes, m.Node(cur...))
		}
	}
	return nodes
}

func TestMeshRouteMatchesGraph(t *testing.T) {
	shapes := []struct {
		wrap bool
		dims []int
	}{
		{false, []int{5}}, {false, []int{3, 4}}, {false, []int{2, 3, 2}},
		{true, []int{5}}, {true, []int{4, 4}}, {true, []int{3, 2, 5}},
	}
	for _, sh := range shapes {
		m := newMesh(sh.wrap, sh.dims)
		n := m.G.NumNodes()
		for src := graph.NodeID(0); int(src) < n; src++ {
			for dst := graph.NodeID(0); int(dst) < n; dst++ {
				want := searchWalk(t, m.G, dimensionOrderNodes(m, src, dst))
				checkRoute(t, fmt.Sprintf("wrap=%v%v %d→%d", sh.wrap, sh.dims, src, dst),
					m.G, m.DimensionOrderRoute(src, dst), want, src, dst)
			}
		}
	}
}

// TestAppendRouteContract pins the append form the traffic Runner leans on:
// it writes after the buffer's existing contents, allocates nothing when
// the capacity is there, and a Route result is never aliased by a later
// call.
func TestAppendRouteContract(t *testing.T) {
	bf := NewButterfly(64)
	torus := NewTorus(4, 4)
	routers := map[string]struct {
		n      int
		route  func(src, dst int) graph.Path
		append func(buf graph.Path, src, dst int) graph.Path
	}{
		"butterfly": {64, bf.Route, bf.AppendRoute},
		"torus": {16,
			func(src, dst int) graph.Path {
				return torus.DimensionOrderRoute(graph.NodeID(src), graph.NodeID(dst))
			},
			func(buf graph.Path, src, dst int) graph.Path {
				return torus.AppendRoute(buf, graph.NodeID(src), graph.NodeID(dst))
			}},
	}
	for name, rt := range routers {
		src, dst := 3, rt.n-2
		want := rt.route(src, dst)
		if len(want) == 0 {
			t.Fatalf("%s: test pair has an empty route", name)
		}

		prefix := graph.Path{7, 8, 9}
		got := rt.append(append(make(graph.Path, 0, 32), prefix...), src, dst)
		if !slices.Equal(got[:3], prefix) || !slices.Equal(got[3:], want) {
			t.Errorf("%s: append onto %v gave %v, want the prefix then %v", name, prefix, got, want)
		}

		buf := make(graph.Path, 0, 32)
		if avg := testing.AllocsPerRun(100, func() { buf = rt.append(buf[:0], src, dst) }); avg != 0 {
			t.Errorf("%s: AppendRoute into spare capacity allocates %.1f times, want 0", name, avg)
		}

		first := rt.route(src, dst)
		rt.route(dst, src)
		rt.append(buf[:0], dst, src)
		if !slices.Equal(first, want) {
			t.Errorf("%s: an earlier Route result changed under later calls: %v, want %v", name, first, want)
		}
	}
}

// BenchmarkRoute is the per-route cost the open-loop engine pays per
// message, on random pairs (destination bits are what a branchy router
// mispredicts on): go test -bench Route ./internal/topology. Each
// iteration includes the two Intn draws, about 5 ns.
func BenchmarkRoute(b *testing.B) {
	bench := func(name string, n int, route func(buf graph.Path, src, dst int) graph.Path) {
		b.Run(name, func(b *testing.B) {
			r := rng.New(1)
			buf := make(graph.Path, 0, 64)
			b.ReportAllocs()
			for b.Loop() {
				buf = route(buf[:0], r.Intn(n), r.Intn(n))
			}
		})
	}
	for _, n := range []int{64, 4096} {
		bench(fmt.Sprintf("butterfly-%d", n), n, NewButterfly(n).AppendRoute)
	}
	m := NewMesh(16, 16)
	bench("mesh-16x16", 256, func(buf graph.Path, src, dst int) graph.Path {
		return m.AppendRoute(buf, graph.NodeID(src), graph.NodeID(dst))
	})
}
