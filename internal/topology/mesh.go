package topology

import (
	"fmt"

	"wormhole/internal/graph"
)

// Mesh is a d-dimensional mesh (a k-ary n-cube without wraparound, the
// "mesh with constant dimension" of the paper's Section 1.3.4). Each node
// has a coordinate vector; antiparallel edge pairs connect nodes that
// differ by one in exactly one coordinate.
type Mesh struct {
	G     *graph.Graph
	Dims  []int // size per dimension
	Wrap  bool  // true for a torus
	strid []int // row-major strides
	// step[2·(v·len(Dims)+d)] is the edge leaving node v toward the next
	// higher coordinate in dimension d (across the wrap link where there
	// is one) and the entry after it the edge toward the next lower; None
	// where the mesh ends. Filled from the IDs AddBiEdge returns, so a
	// route never searches the graph for an edge.
	step []graph.EdgeID
}

// NewMesh builds a mesh with the given per-dimension sizes.
func NewMesh(dims ...int) *Mesh { return newMesh(false, dims) }

// NewTorus builds a torus (mesh with wraparound links) with the given
// per-dimension sizes. Dimensions of size ≤ 2 get a single edge pair
// rather than doubled parallel wrap edges.
func NewTorus(dims ...int) *Mesh { return newMesh(true, dims) }

func newMesh(wrap bool, dims []int) *Mesh {
	if len(dims) == 0 {
		panic("topology: mesh needs at least one dimension")
	}
	n := 1
	strid := make([]int, len(dims))
	for i := len(dims) - 1; i >= 0; i-- {
		if dims[i] < 2 {
			panic(fmt.Sprintf("topology: mesh dimension %d has size %d < 2", i, dims[i]))
		}
		strid[i] = n
		n *= dims[i]
	}
	g := graph.New(n, 2*len(dims)*n)
	m := &Mesh{G: g, Dims: append([]int(nil), dims...), Wrap: wrap, strid: strid}
	m.step = make([]graph.EdgeID, 2*len(dims)*n)
	for i := range m.step {
		m.step[i] = graph.None
	}
	coord := make([]int, len(dims))
	for v := 0; v < n; v++ {
		g.AddNode(fmt.Sprint(m.coordOf(v, coord)))
	}
	for v := 0; v < n; v++ {
		m.coordOf(v, coord)
		for d := range dims {
			up := v + strid[d]
			if coord[d]+1 == dims[d] {
				if !wrap || dims[d] <= 2 {
					continue
				}
				// Wrap edge back to coordinate 0 in dimension d.
				up = v - (dims[d]-1)*strid[d]
			}
			fwd, bwd := g.AddBiEdge(graph.NodeID(v), graph.NodeID(up))
			m.step[2*(v*len(dims)+d)] = fwd
			m.step[2*(up*len(dims)+d)+1] = bwd
		}
	}
	return m
}

// Node returns the ID of the node at the given coordinates.
func (m *Mesh) Node(coord ...int) graph.NodeID {
	if len(coord) != len(m.Dims) {
		panic("topology: coordinate arity mismatch")
	}
	v := 0
	for d, c := range coord {
		if c < 0 || c >= m.Dims[d] {
			panic(fmt.Sprintf("topology: coordinate %d out of range [0,%d)", c, m.Dims[d]))
		}
		v += c * m.strid[d]
	}
	return graph.NodeID(v)
}

// Coord returns the coordinates of node id as a fresh slice.
func (m *Mesh) Coord(id graph.NodeID) []int {
	out := make([]int, len(m.Dims))
	return m.coordOf(int(id), out)
}

func (m *Mesh) coordOf(v int, out []int) []int {
	for d := range m.Dims {
		out[d] = v / m.strid[d] % m.Dims[d]
	}
	return out
}

// DimensionOrderRoute returns the canonical e-cube path from src to dst:
// correct coordinates one dimension at a time, lowest dimension first.
// On a torus it takes the shorter way around each ring (the ascending way
// on a tie). Dimension-order routes are the standard deadlock-free minimal
// paths for meshes. The result is a fresh slice, nil when src == dst.
func (m *Mesh) DimensionOrderRoute(src, dst graph.NodeID) graph.Path {
	return m.AppendRoute(nil, src, dst)
}

// AppendRoute appends the DimensionOrderRoute(src, dst) path to buf and
// returns the extended slice, allocating only if buf lacks the capacity.
//
//wormvet:hotpath
func (m *Mesh) AppendRoute(buf graph.Path, src, dst graph.NodeID) graph.Path {
	v := int(src)
	for d, size := range m.Dims {
		stride := m.strid[d]
		c := v / stride % size
		want := int(dst) / stride % size
		// hops steps in direction dir (0 ascending, 1 descending). The
		// direction never changes mid-dimension, so it is chosen once: on
		// a ring the shorter way round, ascending on a tie.
		dir, hops := 0, want-c
		if m.Wrap && size > 2 {
			if hops = (want - c + size) % size; hops > size-hops {
				dir, hops = 1, size-hops
			}
		} else if hops < 0 {
			dir, hops = 1, -hops
		}
		for ; hops > 0; hops-- {
			eid := m.step[2*(v*len(m.Dims)+d)+dir]
			if eid == graph.None {
				panic("topology: missing mesh edge on dimension-order route")
			}
			buf = append(buf, eid)
			// Move to the neighbour, across the wrap link at a ring's end.
			if dir == 0 {
				c, v = c+1, v+stride
				if c == size {
					c, v = 0, v-size*stride
				}
			} else {
				c, v = c-1, v-stride
				if c < 0 {
					c, v = size-1, v+size*stride
				}
			}
		}
	}
	return buf
}
